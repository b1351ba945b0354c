"""Damysus replica (chained two-phase normal case, paper Appendix A).

Per view: ① NEW-VIEW — backups' checkers pre-issue view certificates that
reach the next leader; ② PREPARE — the leader extends the highest prepared
block (via the accumulator) and collects f+1 prepare votes; ③ PRE-COMMIT —
the prepared QC is broadcast, checkers record the prepared pair and return
commit votes; ④ DECIDE — f+1 commit votes are broadcast and everyone
executes.  Six end-to-end communication steps, O(n) messages.

Damysus-R is the same node with a persistent counter attached to the
checker (``config.counter_factory``): each of the two checker calls per
node per view then pays a counter write on the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.common import (CMT, PREP, PhaseQC, PhaseVote,
                                    schedule_sealed_restore)
from repro.baselines.damysus.checker import DamysusChecker
from repro.chain.block import Block, create_leaf
from repro.chain.execution import execute_transactions
from repro.consensus.base import CommitListener, ReplicaBase, TransactionSource
from repro.consensus.config import BATCH_WAIT_MS, ProtocolConfig
from repro.consensus.pacemaker import Pacemaker
from repro.core.accumulator import AchillesAccumulator
from repro.core.certificates import BlockCertificate, ViewCertificate
from repro.crypto.keys import KeyPair, Keyring
from repro.crypto.signatures import SignatureList
from repro.errors import EnclaveAbort
from repro.net.network import Network
from repro.sim.loop import Simulator


@dataclass(frozen=True)
class DProposal:
    """Leader → all: proposal for the PREPARE phase."""

    block: Block
    block_cert: BlockCertificate

    def wire_size(self) -> int:
        """Serialized size."""
        return self.block.wire_size() + self.block_cert.wire_size()


@dataclass(frozen=True)
class DPrepareVote:
    """Backup → leader: prepare vote."""

    vote: PhaseVote

    def wire_size(self) -> int:
        """Serialized size."""
        return self.vote.wire_size()


@dataclass(frozen=True)
class DPrepared:
    """Leader → all: the prepared QC (PRE-COMMIT phase)."""

    qc: PhaseQC

    def wire_size(self) -> int:
        """Serialized size."""
        return self.qc.wire_size()


@dataclass(frozen=True)
class DCommitVote:
    """Backup → leader: commit vote."""

    vote: PhaseVote

    def wire_size(self) -> int:
        """Serialized size."""
        return self.vote.wire_size()


@dataclass(frozen=True)
class DDecide:
    """Leader → all: the commit QC; execute the block."""

    qc: PhaseQC

    def wire_size(self) -> int:
        """Serialized size."""
        return self.qc.wire_size()


@dataclass(frozen=True)
class DNewView:
    """Node → next leader: view certificate."""

    cert: ViewCertificate

    def wire_size(self) -> int:
        """Serialized size."""
        return self.cert.wire_size()


class DamysusNode(ReplicaBase):
    """A Damysus replica (plain or -R depending on the counter factory)."""

    BYZ_PROPOSAL_KINDS = ("DProposal",)
    BYZ_VOTE_KINDS = ("DPrepareVote", "DCommitVote")
    BYZ_DECIDE_KINDS = ("DDecide",)

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        config: ProtocolConfig,
        keypair: KeyPair,
        keyring: Keyring,
        source: Optional[TransactionSource] = None,
        listener: Optional[CommitListener] = None,
    ) -> None:
        super().__init__(sim, network, node_id, config, keypair, keyring, source, listener)
        self.checker = DamysusChecker(
            node_id=node_id, n=config.n, f=config.f,
            private_key=keypair.private, keyring=keyring,
            profile=config.enclave, crypto=config.crypto,
            counter=(config.make_counter(sim.fork_rng(f"counter/{node_id}"))
                     if config.counter_factory else None),
        )
        self.accumulator = AchillesAccumulator(
            node_id=node_id, f=config.f,
            private_key=keypair.private, keyring=keyring,
            profile=config.enclave, crypto=config.crypto,
        )
        self.view = 0
        self._view_certs: dict[int, dict[int, ViewCertificate]] = {}
        self._prepare_votes: dict[tuple[str, int], dict[int, PhaseVote]] = {}
        self._commit_votes: dict[tuple[str, int], dict[int, PhaseVote]] = {}
        self._proposed_view = -1
        self._prepared_qc_sent: set[int] = set()
        self._decided: set[int] = set()
        self._batch_timer = self.timer("batch_wait")
        self.pacemaker = Pacemaker(self, config.base_timeout_ms, self._on_timeout)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bootstrap into view 1 via the timeout path."""
        self.run_work(self._advance_via_new_view)

    def _advance_via_new_view(self) -> None:
        try:
            cert = self.checker.tee_new_view()
        except EnclaveAbort:
            # Same stall as Achilles' TEEview path: re-arm so the replica
            # keeps retrying at the current backoff instead of going quiet.
            self.pacemaker.rearm()
            return
        finally:
            self.charge_enclave(self.checker)
        self.view = cert.current_view
        self.pacemaker.view_started(self.view)
        # Broadcast so peers behind this view can fast-forward to it (see
        # AchillesNode._sync_to_view for the divergent-backoff failure).
        self.broadcast(DNewView(cert), include_self=True)

    def _sync_to_view(self, target_view: int) -> None:
        """Fast-forward the checker to ``target_view`` off a peer's
        certificate, reuniting divergent views in one place."""
        cert = None
        while self.view < target_view:
            try:
                cert = self.checker.tee_new_view()
            except EnclaveAbort:
                return
            finally:
                self.charge_enclave(self.checker)
            self.view = cert.current_view
        if cert is None:
            return
        self.pacemaker.view_started(self.view)
        self.send_to(self.leader_of(self.view), DNewView(cert))

    def _on_timeout(self, view: int) -> None:
        self.run_work(self._advance_via_new_view)

    # ------------------------------------------------------------------
    # NEW-VIEW collection + PREPARE phase (leader)
    # ------------------------------------------------------------------
    def on_DNewView(self, msg: DNewView, src: int) -> None:
        """Collect view certificates; accumulate and propose on f+1."""
        cert = msg.cert
        # Re-verified (and charged) inside the accumulator ECALL.
        if not cert.validate(self.keyring):
            return
        # One view ahead is the normal chained handoff; two or more means
        # views diverged (crashes + backoff drift) and we must fast-forward
        # or the committee never reassembles f+1 certificates in one view.
        if cert.current_view > self.view + 1:
            self.run_work(lambda: self._sync_to_view(cert.current_view))
        if not self.is_leader(cert.current_view):
            return
        bucket = self._view_certs.setdefault(cert.current_view, {})
        bucket[cert.signer] = cert
        self._try_propose(cert.current_view)

    def _try_propose(self, target_view: int) -> None:
        if self._proposed_view >= target_view:
            return
        bucket = self._view_certs.get(target_view, {})
        if len(bucket) < self.config.f + 1:
            return
        if self.checker.state.vi != target_view or self.checker.needs_restore:
            return
        certs = list(bucket.values())
        best = max(certs, key=lambda c: (c.block_view, -c.signer))
        parent = self.store.get(best.block_hash)
        if parent is None:
            self._request_missing(best.block_hash, best.signer, target_view)
            return
        if not self.store.has_full_ancestry(parent):
            self.with_full_ancestry(parent, lambda _b: self._try_propose(target_view),
                                    hint=best.signer)
            return
        try:
            acc = self.accumulator.tee_accum(best, certs)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.accumulator)
        self._propose(parent, acc, target_view)

    def _request_missing(self, block_hash: str, hint: int, target_view: int) -> None:
        from repro.consensus.messages import BlockSyncRequest

        if block_hash in self._sync_requested:
            return
        self._sync_requested.add(block_hash)
        self._awaiting_ancestor.setdefault(block_hash, []).append(
            (self.store.genesis, lambda _b: self._try_propose(target_view))
        )
        self.send_to(hint, BlockSyncRequest(block_hash=block_hash, requester=self.node_id))

    def _propose(self, parent: Block, acc, view: int) -> None:
        if self._proposed_view >= view:
            return
        txs = self.make_batch()
        if not txs:
            self._batch_timer.start(
                BATCH_WAIT_MS,
                lambda: self.run_work(lambda: self._propose(parent, acc, view)),
            )
            return
        self._batch_timer.cancel()
        op = execute_transactions(txs, parent.hash)
        self.charge(self.config.costs.exec_cost(len(txs)))
        block = create_leaf(txs, op, parent, view=view, proposer=self.node_id)
        try:
            block_cert, own_vote = self.checker.tee_prepare(block, acc)
        except EnclaveAbort:
            self.requeue_batch(txs)
            return
        finally:
            self.charge_enclave(self.checker)
        self._proposed_view = view
        self.view = view
        self.pacemaker.view_started(view)
        self.store.add(block)
        if self.listener is not None:
            self.listener.on_propose(self.node_id, block, self.sim.now)
        if self._obs.enabled:
            self._obs.block_proposed(block.hash, view, self.node_id,
                                     len(block.txs), self.sim.now)
        self.broadcast(DProposal(block=block, block_cert=block_cert))
        self._collect_prepare_vote(own_vote)

    # ------------------------------------------------------------------
    # PREPARE phase (backups)
    # ------------------------------------------------------------------
    def on_DProposal(self, msg: DProposal, src: int) -> None:
        """Validate the block and return a prepare vote."""
        block, cert = msg.block, msg.block_cert
        # Certificate verification is charged inside tee_vote_prepare.
        self.charge_hash(block.wire_size())
        if not cert.validate(self.keyring):
            return
        if cert.block_hash != block.hash or cert.view != block.view:
            return
        if cert.signature.signer != self.leader_of(block.view):
            return
        self.with_full_ancestry(
            block, lambda b: self.run_work(lambda: self._vote_prepare(b, cert)), hint=src
        )

    def _vote_prepare(self, block: Block, cert: BlockCertificate) -> None:
        self.charge(self.config.costs.exec_cost(len(block.txs)))
        if self.config.deep_validation:
            parent = self.store.get(block.parent_hash)
            if parent is None or execute_transactions(block.txs, parent.hash) != block.op:
                return
        try:
            vote = self.checker.tee_vote_prepare(cert)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.checker)
        if self._obs.enabled:
            self._obs.block_milestone(block.hash, "vote", self.node_id,
                                      self.sim.now)
        if block.view > self.view:
            self.view = block.view
            self.pacemaker.view_started(self.view)
        self.send_to(self.leader_of(block.view), DPrepareVote(vote=vote))

    def on_DPrepareVote(self, msg: DPrepareVote, src: int) -> None:
        """Leader: combine f+1 prepare votes into the prepared QC."""
        self._collect_prepare_vote(msg.vote)

    def _collect_prepare_vote(self, vote: PhaseVote) -> None:
        if vote.phase != PREP or not self.is_leader(vote.view):
            return
        if vote.view in self._prepared_qc_sent:
            return
        self.charge_verify(1)
        if not vote.validate(self.keyring):
            return
        key = (vote.block_hash, vote.view)
        bucket = self._prepare_votes.setdefault(key, {})
        bucket[vote.signature.signer] = vote
        if len(bucket) < self.config.f + 1:
            return
        self._prepared_qc_sent.add(vote.view)
        if self._obs.enabled:
            self._obs.block_milestone(vote.block_hash, "prepared",
                                      self.node_id, self.sim.now)
        qc = PhaseQC(
            phase=PREP, block_hash=vote.block_hash, view=vote.view,
            signatures=SignatureList.of(
                v.signature for v in list(bucket.values())[: self.config.f + 1]
            ),
        )
        self.broadcast(DPrepared(qc=qc))
        self._record_prepared(qc)

    # ------------------------------------------------------------------
    # PRE-COMMIT phase
    # ------------------------------------------------------------------
    def on_DPrepared(self, msg: DPrepared, src: int) -> None:
        """All nodes: record the prepared block, send the commit vote."""
        self.run_work(lambda: self._record_prepared(msg.qc))

    def _record_prepared(self, qc: PhaseQC) -> None:
        self.charge_verify(len(qc.signatures))
        if not qc.validate(self.keyring, self.config.f + 1):
            return
        try:
            commit_vote, new_view = self.checker.tee_record_prepared(qc)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.checker)
        leader = self.leader_of(qc.view)
        if leader == self.node_id:
            self._collect_commit_vote(commit_vote)
        else:
            self.send_to(leader, DCommitVote(vote=commit_vote))
        # Chaining: the NEW-VIEW for v+1 ships now, overlapping the DECIDE
        # phase of view v — this is the pipelining that gives chained
        # Damysus its throughput (commit latency still spans both phases).
        self.send_to(self.leader_of(new_view.current_view), DNewView(new_view))

    def on_DCommitVote(self, msg: DCommitVote, src: int) -> None:
        """Leader: combine f+1 commit votes and broadcast DECIDE."""
        self._collect_commit_vote(msg.vote)

    def _collect_commit_vote(self, vote: PhaseVote) -> None:
        if vote.phase != CMT or not self.is_leader(vote.view):
            return
        if vote.view in self._decided:
            return
        self.charge_verify(1)
        if not vote.validate(self.keyring):
            return
        key = (vote.block_hash, vote.view)
        bucket = self._commit_votes.setdefault(key, {})
        bucket[vote.signature.signer] = vote
        if len(bucket) < self.config.f + 1:
            return
        self._decided.add(vote.view)
        if self._obs.enabled:
            self._obs.block_milestone(vote.block_hash, "cert", self.node_id,
                                      self.sim.now)
        qc = PhaseQC(
            phase=CMT, block_hash=vote.block_hash, view=vote.view,
            signatures=SignatureList.of(
                v.signature for v in list(bucket.values())[: self.config.f + 1]
            ),
        )
        self._apply_decide(qc)
        self.broadcast(DDecide(qc=qc))

    # ------------------------------------------------------------------
    # DECIDE phase
    # ------------------------------------------------------------------
    def on_DDecide(self, msg: DDecide, src: int) -> None:
        """All nodes: execute the block, ship the NEW-VIEW onward."""
        qc = msg.qc
        if self.store.is_committed(qc.block_hash):
            return
        self.charge_verify(len(qc.signatures))
        if not qc.validate(self.keyring, self.config.f + 1):
            return
        self._apply_decide(qc)

    def _apply_decide(self, qc: PhaseQC) -> None:
        block = self.store.get(qc.block_hash)
        if block is None:
            return
        if not self.store.is_committed(block.hash):
            if not self.store.has_full_ancestry(block):
                self.with_full_ancestry(block, lambda b: self._apply_decide(qc))
                return
            self.commit_block(block)
            notify_qc = getattr(self.listener, "on_commit_certificate", None)
            if notify_qc is not None:
                notify_qc(self.node_id, qc, self.sim.now)
            self.pacemaker.progress()
        next_view = qc.view + 1
        if next_view > self.view:
            self.view = next_view
            self.pacemaker.view_started(next_view)
        self._prune(qc.view)

    def _prune(self, committed_view: int) -> None:
        for view in [v for v in self._view_certs if v <= committed_view]:
            del self._view_certs[view]
        for collection in (self._prepare_votes, self._commit_votes):
            for key in [k for k in collection if k[1] <= committed_view]:
                del collection[key]
        self._prepared_qc_sent = {v for v in self._prepared_qc_sent if v > committed_view}
        self._decided = {v for v in self._decided if v > committed_view}

    # ------------------------------------------------------------------
    # Reboot: restore from sealed state (+ counter check in -R)
    # ------------------------------------------------------------------
    def reboot(self, rollback_attacker=None) -> None:
        """Reboot and restore the checker from sealed storage.

        ``rollback_attacker`` (a :class:`~repro.tee.rollback.RollbackAttacker`)
        chooses which sealed version the checker sees; Damysus-R detects a
        stale version via the counter, plain Damysus does not.
        """
        super().reboot()
        self.checker.reboot()
        self.accumulator.reboot()
        self.pacemaker.stop()
        init_ms = self.checker.restart(self.config.n - 1)
        self.accumulator.restart(0)  # covered by the same bringup window
        if self._obs.enabled:
            self._obs.begin_phase("recovery", self.node_id, self.sim.now)

        schedule_sealed_restore(self, rollback_attacker, init_ms)


__all__ = [
    "DamysusNode",
    "DProposal",
    "DPrepareVote",
    "DPrepared",
    "DCommitVote",
    "DDecide",
    "DNewView",
]
