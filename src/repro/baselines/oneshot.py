"""OneShot (IPDPS '24) and OneShot-R.

OneShot view-adapts Damysus: in the *normal case* (the previous view's
block committed and the new leader holds its commitment certificate) a
block commits in one voting phase — four end-to-end steps, exactly like
Achilles.  After a view change (timeout path) it falls back to two phases
(six steps): a PRE round establishes that f+1 nodes saw the proposal
before the store/commit round runs.

OneShot-R attaches a persistent counter to the checker: one write per node
per view on the fast path (the leader's single combined ECALL, the
backup's single store ECALL), two per node on the slow path — the paper's
"2 or 4 persistent counter" column in Table 1.

Unlike Achilles, OneShot has no cooperative recovery: a rebooted node
restores the checker from sealed state, and only the -R counter makes that
restoration rollback-proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.common import (PREP, PhaseQC, PhaseVote, RStateMixin,
                                    schedule_sealed_restore)
from repro.chain.block import Block, create_leaf
from repro.chain.execution import execute_transactions
from repro.consensus.config import BATCH_WAIT_MS, ProtocolConfig
from repro.core.certificates import (
    AccumulatorCertificate,
    BlockCertificate,
    CommitmentCertificate,
    StoreCertificate,
)
from repro.core.checker import AchillesChecker
from repro.core.node import AchillesNode, Decide, NewView, NodeStatus, StoreVote
from repro.crypto.signatures import SignatureList, sign
from repro.errors import EnclaveAbort
from repro.tee.enclave import ecall


@dataclass(frozen=True)
class OSProposal:
    """Leader → all; ``slow`` marks a view-change (two-phase) view."""

    block: Block
    block_cert: BlockCertificate
    slow: bool

    def wire_size(self) -> int:
        """Serialized size."""
        return self.block.wire_size() + self.block_cert.wire_size() + 1


@dataclass(frozen=True)
class OSPreVote:
    """Backup → leader: first-round vote on the slow path."""

    vote: PhaseVote

    def wire_size(self) -> int:
        """Serialized size."""
        return self.vote.wire_size()


@dataclass(frozen=True)
class OSPreQC:
    """Leader → all: first-round QC on the slow path."""

    qc: PhaseQC

    def wire_size(self) -> int:
        """Serialized size."""
        return self.qc.wire_size()


class OneShotChecker(RStateMixin, AchillesChecker):
    """Achilles-shaped checker with counter-protected state updates and a
    slow-path voting round; no cooperative recovery."""

    def __init__(self, *args, counter=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.attach_counter(counter)
        self._pre_voted_view = -1

    def wipe_volatile_state(self) -> None:
        """Reboot: state comes back from sealed storage, not from peers."""
        super().wipe_volatile_state()
        self._pre_voted_view = -1

    # -- fast path: one ECALL for the leader ---------------------------
    @ecall
    def tee_prepare_fast(
        self, block: Block, qc: CommitmentCertificate
    ) -> tuple[BlockCertificate, StoreCertificate]:
        """Certify proposal *and* the leader's own store in one call."""
        self._require_oneshot_ready()
        block_cert = self._prepare_with_commit(block, qc)
        store_cert = self._store_internal(block_cert)
        self.protect_state_update(self._payload())
        return block_cert, store_cert

    # -- slow path: proposal after a view change ------------------------
    @ecall
    def tee_prepare_slow(
        self, block: Block, acc: AccumulatorCertificate
    ) -> tuple[BlockCertificate, PhaseVote]:
        """Certify the proposal and the leader's own PRE vote."""
        self._require_oneshot_ready()
        block_cert = self._prepare_with_acc(block, acc)
        self._pre_voted_view = self.state.vi
        self.charge_sign(1)
        pre_vote = PhaseVote(
            phase=PREP, block_hash=block.hash, view=self.state.vi,
            signature=sign(self._sk, PREP, block.hash, self.state.vi),
        )
        self.protect_state_update(self._payload())
        return block_cert, pre_vote

    @ecall
    def tee_pre_vote(self, block_cert: BlockCertificate) -> PhaseVote:
        """Backup's first slow-path round."""
        self._require_oneshot_ready()
        self.charge_verify(1)
        if not block_cert.validate(self._keyring):
            raise EnclaveAbort("invalid block certificate")
        v = block_cert.view
        if block_cert.signature.signer != self.leader_of(v):
            raise EnclaveAbort("block certificate not from the leader")
        if v < self.state.vi:
            raise EnclaveAbort("stale block certificate")
        if v > self.state.vi:
            self.state.vi = v
            self.state.proposed = False
            self.state.voted = False
        if self._pre_voted_view >= v:
            raise EnclaveAbort("already pre-voted in this view")
        self._pre_voted_view = v
        self.protect_state_update(self._payload())
        self.charge_sign(1)
        return PhaseVote(
            phase=PREP, block_hash=block_cert.block_hash, view=v,
            signature=sign(self._sk, PREP, block_cert.block_hash, v),
        )

    @ecall
    def tee_store_slow(
        self, block_cert: BlockCertificate, pre_qc: PhaseQC
    ) -> StoreCertificate:
        """Backup's second slow-path round: store after seeing the pre-QC."""
        self._require_oneshot_ready()
        self.charge_verify(self.f + 1)
        if pre_qc.phase != PREP or not pre_qc.validate(self._keyring, self.f + 1):
            raise EnclaveAbort("invalid pre-QC")
        if pre_qc.block_hash != block_cert.block_hash or pre_qc.view != block_cert.view:
            raise EnclaveAbort("pre-QC does not match the block certificate")
        cert = self._store_internal(block_cert)
        self.protect_state_update(self._payload())
        return cert

    @ecall
    def tee_store_fast(self, block_cert: BlockCertificate) -> StoreCertificate:
        """Backup's single fast-path ECALL."""
        self._require_oneshot_ready()
        cert = self._store_internal(block_cert)
        self.protect_state_update(self._payload())
        return cert

    @ecall
    def tee_view_os(self):
        """Timeout path (counter-protected TEEview)."""
        self._require_oneshot_ready()
        cert = self._view_internal()
        self.protect_state_update(self._payload())
        return cert

    # -- restore after reboot -------------------------------------------
    @ecall
    def tee_restore(self, sealed_payload: Optional[tuple]) -> bool:
        """Restore from sealed state; with a counter, verify freshness."""
        if not self.recovering:
            raise EnclaveAbort("checker does not need restoration")
        if sealed_payload is None:
            self.recovering = False
            return True
        version, payload = sealed_payload
        self.check_sealed_freshness(version)
        (vi, proposed, voted, prepv, preph, pre_voted) = payload
        st = self.state
        st.vi, st.proposed, st.voted, st.prepv, st.preph = vi, proposed, voted, prepv, preph
        self._pre_voted_view = pre_voted
        self._state_version = version
        self.recovering = False
        return True

    # -- internals (no extra ECALL cost; shared logic) -------------------
    def _require_oneshot_ready(self) -> None:
        if self.recovering:
            raise EnclaveAbort("checker state not restored")

    def _payload(self) -> tuple:
        st = self.state
        return (st.vi, st.proposed, st.voted, st.prepv, st.preph, self._pre_voted_view)

    def _prepare_with_commit(self, block: Block, qc: CommitmentCertificate) -> BlockCertificate:
        st = self.state
        self.charge_hash(block.wire_size())
        self.charge_verify(self.f + 1)
        if not qc.validate(self._keyring, self.f + 1):
            raise EnclaveAbort("invalid commitment certificate")
        if block.parent_hash != qc.block_hash:
            raise EnclaveAbort("block does not extend the committed block")
        if qc.view + 1 < st.vi:
            raise EnclaveAbort("stale commitment certificate")
        if qc.view >= st.vi:
            st.vi = qc.view + 1
            st.proposed = False
            st.voted = False
        if st.proposed:
            raise EnclaveAbort("already proposed in this view")
        if block.view != st.vi or self.leader_of(st.vi) != self.node_id:
            raise EnclaveAbort("not this view's leader / wrong block view")
        st.proposed = True
        self.charge_sign(1)
        return BlockCertificate(
            block_hash=block.hash, view=st.vi,
            signature=sign(self._sk, "PROP", block.hash, st.vi),
        )

    def _prepare_with_acc(self, block: Block, acc: AccumulatorCertificate) -> BlockCertificate:
        st = self.state
        self.charge_hash(block.wire_size())
        self.charge_verify(1)
        if not acc.validate(self._keyring, self.f + 1):
            raise EnclaveAbort("invalid accumulator certificate")
        if acc.signature.signer != self.node_id:
            raise EnclaveAbort("accumulator certificate from another node")
        if acc.target_view != st.vi:
            raise EnclaveAbort("accumulator targets a different view")
        if block.parent_hash != acc.block_hash:
            raise EnclaveAbort("block does not extend the accumulated block")
        if st.proposed or block.view != st.vi or self.leader_of(st.vi) != self.node_id:
            raise EnclaveAbort("proposal guard failed")
        st.proposed = True
        self.charge_sign(1)
        return BlockCertificate(
            block_hash=block.hash, view=st.vi,
            signature=sign(self._sk, "PROP", block.hash, st.vi),
        )

    def _store_internal(self, block_cert: BlockCertificate) -> StoreCertificate:
        st = self.state
        self.charge_verify(1)
        if not block_cert.validate(self._keyring):
            raise EnclaveAbort("invalid block certificate")
        v = block_cert.view
        if block_cert.signature.signer != self.leader_of(v):
            raise EnclaveAbort("block certificate not from the leader")
        if v < st.vi:
            raise EnclaveAbort("stale block certificate")
        if v > st.vi:
            st.vi = v
            st.proposed = False
            st.voted = False
        if st.voted:
            raise EnclaveAbort("already voted in this view")
        st.voted = True
        st.prepv = v
        st.preph = block_cert.block_hash
        self.charge_sign(1)
        return StoreCertificate(
            block_hash=block_cert.block_hash, view=v,
            signature=sign(self._sk, "COMMIT", block_cert.block_hash, v),
        )

    def _view_internal(self):
        from repro.core.certificates import ViewCertificate

        st = self.state
        st.vi += 1
        st.proposed = False
        st.voted = False
        self.charge_sign(1)
        return ViewCertificate(
            block_hash=st.preph, block_view=st.prepv, current_view=st.vi,
            signature=sign(self._sk, "NEW-VIEW", st.preph, st.prepv, st.vi),
        )


class OneShotNode(AchillesNode):
    """OneShot replica: Achilles-shaped fast path, two-phase slow path."""

    BYZ_PROPOSAL_KINDS = ("OSProposal",)
    BYZ_VOTE_KINDS = ("StoreVote", "OSPreVote")
    BYZ_DECIDE_KINDS = ("Decide",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Replace the Achilles checker with the OneShot one.
        self.checker = OneShotChecker(
            node_id=self.node_id, n=self.config.n, f=self.config.f,
            private_key=self.keypair.private, keyring=self.keyring,
            profile=self.config.enclave, crypto=self.config.crypto,
            counter=(self.config.make_counter(self.sim.fork_rng(f"counter/{self.node_id}"))
                     if self.config.counter_factory else None),
        )
        self._pre_votes: dict[tuple[str, int], dict[int, PhaseVote]] = {}
        self._pre_qc_sent: set[int] = set()
        self._slow_blocks: dict[int, tuple[Block, BlockCertificate]] = {}

    # ------------------------------------------------------------------
    # Proposal — dispatch fast vs slow by justification type
    # ------------------------------------------------------------------
    def _propose(self, parent: Block, justification, view: int) -> None:
        if self._proposed_view >= view or self.status is not NodeStatus.RUNNING:
            return
        txs = self.make_batch()
        if not txs:
            self._batch_timer.start(
                BATCH_WAIT_MS,
                lambda: self.run_work(lambda: self._propose(parent, justification, view)),
            )
            return
        self._batch_timer.cancel()
        op = execute_transactions(txs, parent.hash)
        self.charge(self.config.costs.exec_cost(len(txs)))
        block = create_leaf(txs, op, parent, view=view, proposer=self.node_id)
        slow = isinstance(justification, AccumulatorCertificate)
        try:
            if slow:
                block_cert, own_pre = self.checker.tee_prepare_slow(block, justification)
            else:
                block_cert, own_store = self.checker.tee_prepare_fast(block, justification)
        except EnclaveAbort:
            self.requeue_batch(txs)
            return
        finally:
            self.charge_enclave(self.checker)

        self._proposed_view = view
        self.view = view
        self.pacemaker.view_started(view)
        self._answer_pending_recoveries()
        self.store.add(block)
        if self.listener is not None:
            self.listener.on_propose(self.node_id, block, self.sim.now)
        if self._obs.enabled:
            self._obs.block_proposed(block.hash, view, self.node_id,
                                     len(block.txs), self.sim.now)
        self.broadcast(OSProposal(block=block, block_cert=block_cert, slow=slow))
        if slow:
            self._slow_blocks[view] = (block, block_cert)
            self._collect_pre_vote(own_pre)
        else:
            self.preb_block = block
            self.preb_cert = block_cert
            self.preb_qc = None
            self.send_to(self.node_id, StoreVote(cert=own_store))

    # Achilles' Proposal handler is unused; OneShot ships OSProposal.
    def on_Proposal(self, msg, src: int) -> None:  # pragma: no cover - guard
        """OneShot does not speak the Achilles Proposal message."""
        return

    def on_OSProposal(self, msg: OSProposal, src: int) -> None:
        """Backup: fast path stores immediately; slow path pre-votes."""
        if self.status is not NodeStatus.RUNNING:
            return
        block, cert = msg.block, msg.block_cert
        # Certificate verification is charged inside the checker ECALLs.
        self.charge_hash(block.wire_size())
        if not cert.validate(self.keyring):
            return
        if cert.block_hash != block.hash or cert.view != block.view:
            return
        if cert.signature.signer != self.leader_of(block.view):
            return
        if msg.slow:
            self._slow_blocks[block.view] = (block, cert)
            self.with_full_ancestry(
                block, lambda b: self.run_work(lambda: self._pre_vote(b, cert)), hint=src
            )
        else:
            self.with_full_ancestry(
                block, lambda b: self.run_work(lambda: self._validated_store(b, cert)),
                hint=src,
            )

    def _validated_store(self, block: Block, cert: BlockCertificate) -> None:
        if self.status is not NodeStatus.RUNNING:
            return
        self.charge(self.config.costs.exec_cost(len(block.txs)))
        try:
            store_cert = self.checker.tee_store_fast(cert)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.checker)
        self._after_store(block, cert, store_cert)

    def _after_store(self, block: Block, cert: BlockCertificate,
                     store_cert: StoreCertificate) -> None:
        self.preb_block = block
        self.preb_cert = cert
        self.preb_qc = None
        if self._obs.enabled:
            self._obs.block_milestone(block.hash, "vote", self.node_id,
                                      self.sim.now)
        if block.view > self.view:
            self.view = block.view
            self.pacemaker.view_started(self.view)
        self.send_to(self.leader_of(block.view), StoreVote(cert=store_cert))

    # ------------------------------------------------------------------
    # Slow path rounds
    # ------------------------------------------------------------------
    def _pre_vote(self, block: Block, cert: BlockCertificate) -> None:
        if self.status is not NodeStatus.RUNNING:
            return
        self.charge(self.config.costs.exec_cost(len(block.txs)))
        try:
            vote = self.checker.tee_pre_vote(cert)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.checker)
        if block.view > self.view:
            self.view = block.view
            self.pacemaker.view_started(self.view)
        self.send_to(self.leader_of(block.view), OSPreVote(vote=vote))

    def on_OSPreVote(self, msg: OSPreVote, src: int) -> None:
        """Leader: combine f+1 pre-votes and broadcast the pre-QC."""
        if self.status is not NodeStatus.RUNNING:
            return
        self._collect_pre_vote(msg.vote)

    def _collect_pre_vote(self, vote: PhaseVote) -> None:
        if vote.phase != PREP or not self.is_leader(vote.view):
            return
        if vote.view in self._pre_qc_sent:
            return
        self.charge_verify(1)
        if not vote.validate(self.keyring):
            return
        bucket = self._pre_votes.setdefault((vote.block_hash, vote.view), {})
        bucket[vote.signature.signer] = vote
        if len(bucket) < self.config.f + 1:
            return
        self._pre_qc_sent.add(vote.view)
        qc = PhaseQC(
            phase=PREP, block_hash=vote.block_hash, view=vote.view,
            signatures=SignatureList.of(
                v.signature for v in list(bucket.values())[: self.config.f + 1]
            ),
        )
        self.broadcast(OSPreQC(qc=qc))
        self._store_after_pre_qc(qc)

    def on_OSPreQC(self, msg: OSPreQC, src: int) -> None:
        """All nodes: second slow-path round — store and vote."""
        if self.status is not NodeStatus.RUNNING:
            return
        self.run_work(lambda: self._store_after_pre_qc(msg.qc))

    def _store_after_pre_qc(self, qc: PhaseQC) -> None:
        entry = self._slow_blocks.get(qc.view)
        if entry is None:
            return
        block, cert = entry
        if qc.block_hash != block.hash:
            return
        self.charge_verify(len(qc.signatures))
        if not qc.validate(self.keyring, self.config.f + 1):
            return
        try:
            store_cert = self.checker.tee_store_slow(cert, qc)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.checker)
        leader = self.leader_of(block.view)
        if leader == self.node_id:
            self.preb_block = block
            self.preb_cert = cert
            self.send_to(self.node_id, StoreVote(cert=store_cert))
        else:
            self._after_store(block, cert, store_cert)

    # ------------------------------------------------------------------
    # Timeout uses the counter-protected TEEview
    # ------------------------------------------------------------------
    def _tee_next_view(self):
        """OneShot's counter-protected TEEview (broadcast/catch-up logic
        is inherited from :class:`AchillesNode`)."""
        return self.checker.tee_view_os()

    # ------------------------------------------------------------------
    # Reboot: sealed-state restore (no cooperative recovery in OneShot)
    # ------------------------------------------------------------------
    def reboot(self, rollback_attacker=None) -> None:
        """Restore the checker from sealed storage (counter-checked in -R)."""
        from repro.consensus.base import ReplicaBase

        ReplicaBase.reboot(self)
        self.status = NodeStatus.RECOVERING
        self.checker.reboot()
        self.accumulator.reboot()
        self.pacemaker.stop()
        self._view_certs.clear()
        self._votes.clear()
        self._pre_votes.clear()
        self._slow_blocks.clear()
        init_ms = self.checker.restart(self.config.n - 1)
        self.accumulator.restart(0)  # covered by the same bringup window
        if self._obs.enabled:
            self._obs.begin_phase("recovery", self.node_id, self.sim.now)

        def running() -> None:
            self.status = NodeStatus.RUNNING

        schedule_sealed_restore(self, rollback_attacker, init_ms,
                                restored=running)

    def _prune(self, committed_view: int) -> None:
        super()._prune(committed_view)
        for key in [k for k in self._pre_votes if k[1] <= committed_view]:
            del self._pre_votes[key]
        for view in [v for v in self._slow_blocks if v <= committed_view]:
            del self._slow_blocks[view]
        self._pre_qc_sent = {v for v in self._pre_qc_sent if v > committed_view}


__all__ = ["OneShotNode", "OneShotChecker", "OSProposal", "OSPreVote", "OSPreQC"]
