"""Achilles replica: normal-case operations (Algorithm 1) and the
untrusted half of rollback-resilient recovery (Algorithm 3).

One view commits one block in a single voting phase:

* **NEW-VIEW** — on timeout, nodes ship view certificates to the next
  leader, which accumulates f+1 of them to learn the mandatory parent.
  On the happy path this phase is skipped: a leader holding the previous
  view's commitment certificate proposes immediately (New-View
  optimization, Sec. 4.4).
* **COMMIT** — the leader executes a batch, certifies the block through
  its CHECKER (TEEprepare) and broadcasts it; backups validate, store it
  through TEEstore, and return store certificates.
* **DECIDE** — f+1 store certificates form the commitment certificate;
  the leader commits/replies and broadcasts the certificate; everyone
  enters the next view.

End-to-end this is four communication steps (client→leader, proposal,
vote, reply), with O(n) messages per view.  No persistent counter is ever
touched: a rebooting node's ``_rejoin`` runs :meth:`_begin_recovery`
instead (Sec. 4.5).

:class:`ChainedTeeNode` is the part of this that is not Achilles': the
chained-TEE skeleton OneShot and Damysus are built on as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chain.block import Block
from repro.chain.execution import execute_transactions
from repro.consensus.base import NodeStatus, QuorumCollector, ReplicaBase
from repro.consensus.messages import BlockSyncRequest
from repro.consensus.pacemaker import Pacemaker
from repro.core.accumulator import AchillesAccumulator
from repro.core.certificates import (
    BlockCertificate,
    CommitmentCertificate,
    RecoveryReply,
    RecoveryRequest,
    StoreCertificate,
    ViewCertificate,
)
from repro.core.checker import AchillesChecker
from repro.crypto.signatures import SignatureList
from repro.errors import EnclaveAbort, SealingError
from repro.net.message import HASH_BYTES, HEADER_BYTES, SIGNATURE_BYTES


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Proposal:
    """Leader → all: the view's block plus its TEE block certificate."""

    block: Block
    block_cert: BlockCertificate

    def wire_size(self) -> int:
        """Serialized size."""
        return self.block.wire_size() + self.block_cert.wire_size()


@dataclass(frozen=True)
class StoreVote:
    """Backup → leader: the store certificate (the vote)."""

    cert: StoreCertificate

    #: Envelope size (``intern_size``): every vote has the same one.
    _env_size = HEADER_BYTES + 6 + HASH_BYTES + 8 + SIGNATURE_BYTES

    def wire_size(self) -> int:
        """Serialized size."""
        return self.cert.wire_size()


@dataclass(frozen=True)
class Decide:
    """Leader → all: the commitment certificate; enter the next view."""

    qc: CommitmentCertificate

    def wire_size(self) -> int:
        """Serialized size."""
        return self.qc.wire_size()


@dataclass(frozen=True)
class NewView:
    """Node → next leader: view certificate after a timeout/recovery."""

    cert: ViewCertificate

    def wire_size(self) -> int:
        """Serialized size."""
        return self.cert.wire_size()


@dataclass(frozen=True)
class RecoveryRequestMsg:
    """Rebooting node → all: please report your checker state."""

    request: RecoveryRequest

    def wire_size(self) -> int:
        """Serialized size."""
        return self.request.wire_size()


@dataclass(frozen=True)
class RecoveryResponseMsg:
    """Peer → rebooting node: checker report plus its latest stored block."""

    reply: RecoveryReply
    block: Optional[Block]
    qc: Optional[CommitmentCertificate]

    def wire_size(self) -> int:
        """Serialized size."""
        size = self.reply.wire_size()
        if self.block is not None:
            size += self.block.wire_size()
        if self.qc is not None:
            size += self.qc.wire_size()
        return size


@dataclass
class RecoveryStats:
    """One recovery episode's timing breakdown (Table 2)."""

    rebooted_at: float
    init_ms: float = 0.0
    protocol_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        """Initialization + recovery-protocol latency."""
        return self.init_ms + self.protocol_ms


class ChainedTeeNode(ReplicaBase):
    """The chained-TEE skeleton Achilles, OneShot and Damysus share.

    A view's leader extends the parent it learns from f+1 view
    certificates (through the stateless ACCUMULATOR) or from the previous
    view's commitment certificate; its CHECKER certifies one block per
    view; backups admit the proposal, vote through their own checker, and
    everyone commits on a certificate of f+1 votes.  A protocol supplies
    its checker and ECALLs (:meth:`_make_checker`, :meth:`_tee_next_view`,
    :meth:`_tee_prepare`, :meth:`_store_and_vote`), its wire messages
    (:attr:`NEW_VIEW`, :meth:`_announce`; the shared handler bodies
    :meth:`_on_new_view`, :meth:`_on_proposal`, :meth:`_on_decide` are
    bound to its message names), and the handlers of its own phases.
    """

    #: The protocol's message carrying a view certificate.
    NEW_VIEW: type
    #: Whether a leader whose checker is not in the target view yet holds
    #: back the pull of a missing parent too (Damysus), or only the
    #: proposal (Achilles, OneShot).
    PULLS_PARENT_ONLY_WHEN_READY = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        config = self.config
        trusted = dict(node_id=self.node_id, f=config.f,
                       private_key=self.keypair.private, keyring=self.keyring,
                       profile=config.enclave, crypto=config.crypto)
        self.checker = self._make_checker(n=config.n, **trusted)
        self.accumulator = AchillesAccumulator(**trusted)
        self.view = 0
        self._view_certs = self._new_collector(config.f + 1, once=False)
        self._proposed_view = -1
        self.pacemaker = Pacemaker(self, config.base_timeout_ms, self._on_timeout)

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def _make_checker(self, **trusted):
        """The protocol's CHECKER, built from the common constructor
        arguments."""
        raise NotImplementedError

    def _tee_next_view(self) -> ViewCertificate:
        """The trusted call that advances the checker one view."""
        raise NotImplementedError

    def _tee_prepare(self, block: Block, justification):
        """The trusted call certifying ``block`` as this view's proposal;
        whatever it returns is handed to :meth:`_announce`."""
        raise NotImplementedError

    def _announce(self, block: Block, prepared) -> None:
        """Broadcast the certified proposal and cast the leader's own
        vote."""
        raise NotImplementedError

    def _store_and_vote(self, block: Block, cert: BlockCertificate) -> None:
        """The trusted call recording a validated proposal, and the vote
        it yields, sent to the leader."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Entering views (NEW-VIEW phase, Algorithm 1 lines 38–43)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Enter view 1 and ship the initial view certificate (bootstrap
        plays the timeout path once so every checker leaves view 0)."""
        self.run_work(self._advance_view)

    def _on_timeout(self, view: int) -> None:
        if self.status is not NodeStatus.RUNNING:
            return
        self.run_work(self._advance_view)

    def _advance_view(self) -> None:
        try:
            cert = self._tee_next_view()
        except EnclaveAbort:
            # The checker refused (e.g. mid-recovery).  Re-arm the view
            # timer at the current backoff so the replica retries instead
            # of stalling until an external message happens to arrive.
            self.pacemaker.rearm()
            return
        finally:
            self.charge_enclave(self.checker)
        self.view = cert.current_view
        self.pacemaker.view_started(self.view)
        if self._obs.enabled:
            self._obs.instant("view_change", self.node_id, self.sim.now,
                              view=self.view)
        # Broadcast (not just to the new leader): peers that fell behind
        # fast-forward off this certificate, so divergent backoffs reunite
        # the committee in one view instead of drifting apart forever.
        self.broadcast(self.NEW_VIEW(cert), include_self=True)

    def _sync_to_view(self, target_view: int) -> None:
        """Fast-forward the checker to ``target_view`` and hand the
        resulting certificate to that view's leader.

        Without this, replicas whose exponential backoffs diverged advance
        one view per own timeout; a replica ahead with a shorter timer
        outruns the laggards and no view ever collects f+1 certificates —
        a permanent liveness failure the chaos campaigns exhibit.
        """
        cert = None
        while self.view < target_view:
            try:
                cert = self._tee_next_view()
            except EnclaveAbort:
                return
            finally:
                self.charge_enclave(self.checker)
            self.view = cert.current_view
        if cert is None:
            return
        self.pacemaker.view_started(self.view)
        self.send_to(self.leader_of(self.view), self.NEW_VIEW(cert))

    def _on_new_view(self, msg, src: int) -> None:
        """Leader side: collect view certificates (COMMIT phase trigger).

        Non-leaders use the certificate as a view-synchronization beacon:
        seeing a view ahead of their own, they catch up through the
        checker and send their own certificate to the new view's leader.
        """
        if self.status is not NodeStatus.RUNNING:
            return
        cert = msg.cert
        # Validation is logical only here: the ACCUMULATOR re-verifies all
        # f+1 certificates inside the enclave (where the cost is charged),
        # per Algorithm 2 — charging here too would double-count.
        if not cert.validate(self.keyring):
            return
        # One view ahead is an ordinary single timeout (or the chained
        # handoff); two or more means views diverged (crash/backoff drift)
        # and this replica must fast-forward or no view ever assembles
        # f+1 certificates.
        if cert.current_view > self.view + 1:
            self.run_work(lambda: self._sync_to_view(cert.current_view))
        if self.leader_of(cert.current_view) != self.node_id:
            return
        self._view_certs.add((cert.current_view,), cert.signer, cert)
        self._try_propose(cert.current_view)

    def _try_propose(self, target_view: int) -> None:
        if self._proposed_view >= target_view or self.view > target_view:
            return
        certs = self._view_certs.votes((target_view,))
        if len(certs) < self.config.f + 1:
            return
        # The untrusted view may lag the checker if our own view-advancing
        # call for target_view already ran; the checker is authoritative.
        ready = self.checker.state.vi == target_view and \
            not self.checker.recovering
        if self.PULLS_PARENT_ONLY_WHEN_READY and not ready:
            return
        best = max(certs, key=lambda c: (c.block_view, -c.signer))
        parent = self.store.get(best.block_hash)
        if parent is None:
            # Pull the parent block before extending it.
            self._obtain_parent(best.block_hash, best.signer,
                                lambda _b: self._try_propose(target_view))
            return
        if not self.store.has_full_ancestry(parent):
            self.with_full_ancestry(parent, lambda _b: self._try_propose(target_view),
                                    hint=best.signer)
            return
        if not ready:
            return
        try:
            acc = self.accumulator.tee_accum(best, certs)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.accumulator)
        self._propose(parent, acc, target_view)

    # ------------------------------------------------------------------
    # COMMIT phase — leader side (Algorithm 1 lines 5–23, 45–49)
    # ------------------------------------------------------------------
    def _propose(self, parent: Block, justification, view: int) -> None:
        if self._proposed_view >= view or self.status is not NodeStatus.RUNNING:
            return
        block = self._build_block(
            parent, view, lambda: self._propose(parent, justification, view))
        if block is None:
            return
        try:
            prepared = self._tee_prepare(block, justification)
        except EnclaveAbort:
            self.requeue_batch(block.txs)
            return
        finally:
            self.charge_enclave(self.checker)
        self._proposed_view = view
        self.view = view
        self.pacemaker.view_started(view)
        self.store.add(block)
        if self.listener is not None:
            self.listener.on_propose(self.node_id, block, self.sim.now)
        self.sim.trace.record(self.sim.now, "propose", self.node_id,
                              view=view, block=block.hash, txs=len(block.txs))
        if self._obs.enabled:
            self._obs.block_proposed(block.hash, view, self.node_id,
                                     len(block.txs), self.sim.now)
        self._announce(block, prepared)

    # ------------------------------------------------------------------
    # COMMIT phase — backup side (Algorithm 1 lines 18–23)
    # ------------------------------------------------------------------
    def _on_proposal(self, msg, src: int, vote=None) -> Optional[bool]:
        """Admit the leader's block; ``vote(block, cert)`` — by default
        :meth:`_store_and_vote` — runs once it is validated.  Returns
        True when the proposal passed admission."""
        if self.status is not NodeStatus.RUNNING:
            return None
        block, cert = msg.block, msg.block_cert
        # The block certificate is re-verified (and charged) inside the
        # checker; here the host only pays for hashing the block body it
        # needs for the structural comparisons (charge_hash, in line).
        cost = self.config.crypto.hash_per_kb_ms * (block.wire_size() / 1024.0)
        self._pending_cost += cost
        if self._obs.enabled:
            self._obs.add_part("crypto", "hash", cost)
        if not cert.validate(self.keyring):
            return None
        if cert.block_hash != block.hash or cert.view != block.view:
            return None
        if cert.signature.signer != self.leader_of(block.view):
            return None
        if vote is None:
            vote = self._store_and_vote
        # Block validity: full ancestry plus correct execution results.
        # With the ancestry local (the normal case) validation runs now,
        # in this handler's unit of work, as with_full_ancestry would.
        store = self.store
        store.add(block)
        missing = store.missing_ancestor_hash(block)
        if missing is None:
            self._validated(block, cert, vote)
        else:
            self._await_ancestor(
                missing, block,
                lambda b: self.run_work(lambda: self._validated(b, cert, vote)),
                hint=src)
        return True

    def _validated(self, block: Block, cert: BlockCertificate, vote) -> None:
        if self.status is not NodeStatus.RUNNING:
            return
        self._pending_cost += self.config.costs.exec_cost(len(block.txs))
        if self.config.deep_validation:
            parent = self.store.get(block.parent_hash)
            if parent is None:
                return
            expected = execute_transactions(block.txs, parent.hash)
            if expected != block.op:
                self.sim.trace.record(self.sim.now, "bad_execution_results",
                                      self.node_id, block=block.hash)
                return
        vote(block, cert)

    def _quorum_signatures(self, collector: QuorumCollector,
                           vote) -> Optional[SignatureList]:
        """Leader side of a voting phase: count ``vote`` (anything signed
        over ``(block_hash, view)``); returns the signatures of the first
        f+1 votes for one block, once per view."""
        if self.leader_of(vote.view) != self.node_id \
                or vote.view in collector.latched:
            return None
        self.charge_verify(1)
        if not vote.validate(self.keyring):
            return None
        quorum = collector.add((vote.view, vote.block_hash),
                               vote.signature.signer, vote)
        if quorum is None:
            return None
        return SignatureList.of(v.signature for v in quorum)

    # ------------------------------------------------------------------
    # DECIDE phase — all nodes (Algorithm 1 lines 31–36)
    # ------------------------------------------------------------------
    def _on_decide(self, msg, src: int) -> None:
        """Commit on a valid certificate of f+1 votes; enter the next
        view."""
        if self.status is not NodeStatus.RUNNING:
            return
        qc = msg.qc
        if qc.block_hash in self.store._committed_hashes:
            return
        self.charge_verify(len(qc.signatures.signatures))
        if not qc.validate(self.keyring, self.config.f + 1):
            return
        self._handle_commitment(qc, src)

    def _handle_commitment(self, qc, src: int) -> None:
        block = self.store.get(qc.block_hash)
        if block is None:
            self._obtain_block(qc.block_hash, src, lambda b: self._apply_commitment(qc, b))
            return
        self._apply_commitment(qc, block)

    def _apply_commitment(self, qc, block: Block) -> Optional[bool]:
        """Commit ``block`` on ``qc``; True once it actually committed."""
        if self.status is not NodeStatus.RUNNING:
            return None
        store = self.store
        if block.hash in store._committed_hashes:
            return None
        if store.missing_ancestor_hash(block) is not None:
            self.with_full_ancestry(block, lambda b: self._apply_commitment(qc, b))
            return None
        self.commit_block(block)
        # Invariant monitors subscribe to the certificate that justified
        # the commit (Theorem 1: no commit without f+1 store certificates);
        # commit_block just looked the hook up.
        notify_qc = self._listener_hooks[2]
        if notify_qc is not None:
            notify_qc(self.node_id, qc, self.sim.now)
        self.pacemaker.progress()
        next_view = qc.view + 1
        if next_view > self.view:
            self.view = next_view
            self.pacemaker.view_started(next_view)
        self._prune(qc.view)
        return True

    def _prune(self, committed_view: int) -> None:
        """Drop per-view collections that can no longer matter."""
        for collector in self._collectors:
            # Only a view's leader collects anything; backups skip the call.
            if collector.buckets or collector.latched:
                collector.prune(committed_view)

    def _obtain_block(self, block_hash: str, hint: int, action) -> None:
        """Pull a block known only by hash, then run ``action(block)``."""
        waiters = self._awaiting_ancestor.setdefault(block_hash, [])
        waiters.append((self.store.genesis, lambda _b: action(self.store.get(block_hash))))
        if block_hash not in self._sync_requested:
            self._sync_requested.add(block_hash)
            request = BlockSyncRequest(block_hash=block_hash, requester=self.node_id)
            if hint != self.node_id:
                self.send_to(hint, request)
            else:
                self.broadcast(request)

    #: How :meth:`_try_propose` pulls a missing parent.
    _obtain_parent = _obtain_block

    # ------------------------------------------------------------------
    # Reboot through sealed storage (Damysus, OneShot)
    # ------------------------------------------------------------------
    def _restart_trusted(self) -> float:
        self.checker.reboot()
        self.accumulator.reboot()
        init_ms = self.checker.restart(self.config.n - 1)
        # The accumulator restarts within the same enclave-bringup window;
        # its cost is covered by the checker's init (one SGX restart).
        self.accumulator.restart(0)
        return init_ms

    def _rejoin_from_seal(self, rollback_attacker, init_ms: float) -> None:
        """After ``init_ms`` of enclave bring-up, restore the checker from
        its sealed ``rstate`` and re-enter the restored view.

        ``rollback_attacker`` chooses which sealed version the checker
        sees; the -R variants detect a stale one via the counter and
        refuse to rejoin — modelled as staying offline until the OS
        produces the fresh state.
        """
        def restore() -> None:
            try:
                if rollback_attacker is not None:
                    sealed = rollback_attacker.unseal_for(self.checker, "rstate")
                else:
                    sealed = self.checker.unseal_state("rstate")
            except SealingError:
                # The on-disk blob is torn/corrupt (e.g. a power cut mid
                # write): no usable sealed state.
                sealed = None
            try:
                self.checker.tee_restore(sealed)
            except EnclaveAbort:
                self.sim.trace.record(self.sim.now, "rollback_detected", self.node_id)
                if self._obs.enabled:
                    self._obs.end_phase("recovery", self.node_id, self.sim.now,
                                        rollback_detected=True)
                return
            finally:
                self.charge_enclave(self.checker)
            self._resume(self.checker.state.vi)

        self.after(init_ms, lambda: self.run_work(restore),
                   label=f"{self.name}.restore")


class AchillesNode(ChainedTeeNode):
    """An Achilles replica."""

    BYZ_PROPOSAL_KINDS = ("Proposal",)
    BYZ_VOTE_KINDS = ("StoreVote",)
    BYZ_DECIDE_KINDS = ("Decide",)
    NEW_VIEW = NewView

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # ⟨b, φ_b, φ_c⟩ — the latest stored block and its certificates.
        self.preb_block: Block = self.store.genesis
        self.preb_cert: Optional[BlockCertificate] = None
        self.preb_qc: Optional[CommitmentCertificate] = None
        self._votes = self._new_collector(self.config.f + 1)

        # Recovery bookkeeping
        self._recovery_replies: dict[int, tuple[RecoveryReply, Optional[Block],
                                                Optional[CommitmentCertificate]]] = {}
        self._recovery_request: Optional[RecoveryRequest] = None
        self._recovery_nonce: Optional[str] = None
        self._recovery_timer = self.timer("recovery_retry")
        # Outstanding peers' recovery requests, kept so this node can
        # re-answer with a fresh (higher-view) reply when it becomes the
        # leader — see _answer_pending_recoveries for why that matters.
        self._pending_recovery: dict[int, tuple[RecoveryRequest, float]] = {}
        self._current_recovery: Optional[RecoveryStats] = None
        self._recovery_started_at = 0.0

    def _make_checker(self, **trusted) -> AchillesChecker:
        return AchillesChecker(**trusted)

    def _tee_next_view(self) -> ViewCertificate:
        return self.checker.tee_view()

    on_NewView = ChainedTeeNode._on_new_view
    on_Proposal = ChainedTeeNode._on_proposal
    on_Decide = ChainedTeeNode._on_decide

    # ------------------------------------------------------------------
    # COMMIT phase (TEEprepare / TEEstore)
    # ------------------------------------------------------------------
    def _tee_prepare(self, block: Block, justification) -> BlockCertificate:
        return self.checker.tee_prepare(block, justification)

    def _announce(self, block: Block, block_cert: BlockCertificate) -> None:
        self._answer_pending_recoveries()
        self.broadcast(Proposal(block=block, block_cert=block_cert))
        # The leader stores (votes for) its own block (Algorithm 1 line 18
        # covers "all nodes").
        self._store_and_vote(block, block_cert)

    def _store_and_vote(self, block: Block, cert: BlockCertificate) -> None:
        try:
            store_cert = self.checker.tee_store(cert)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.checker)
        self.preb_block = block
        self.preb_cert = cert
        self.preb_qc = None
        if self._obs.enabled:
            self._obs.block_milestone(block.hash, "vote", self.node_id,
                                      self.sim.now)
        if block.view > self.view:
            self.view = block.view
            self.pacemaker.view_started(self.view)
        # Self-votes go through the loopback queue (not a direct call) so a
        # commit can never synchronously re-enter _propose — with n = 1 the
        # whole propose→vote→commit cycle would otherwise recurse.
        self.send_to(self.leader_of(block.view), StoreVote(cert=store_cert))

    def on_StoreVote(self, msg: StoreVote, src: int) -> None:
        """Leader side of the DECIDE phase: collect f+1 store certificates."""
        if self.status is not NodeStatus.RUNNING:
            return
        cert = msg.cert
        if self.leader_of(cert.view) != self.node_id \
                or cert.view in self._votes.latched:
            return
        self.charge_verify(1)
        if not cert.validate(self.keyring):
            return
        quorum = self._votes.add((cert.view, cert.block_hash),
                                 cert.signature.signer, cert)
        if quorum is None:
            return
        qc = CommitmentCertificate(
            block_hash=cert.block_hash, view=cert.view,
            signatures=SignatureList.of(c.signature for c in quorum))
        if self._obs.enabled:
            self._obs.block_milestone(cert.block_hash, "cert", self.node_id,
                                      self.sim.now)
        self._handle_commitment(qc, src=self.node_id)
        self.broadcast(Decide(qc=qc))

    def _apply_commitment(self, qc: CommitmentCertificate, block: Block) -> Optional[bool]:
        if not super()._apply_commitment(qc, block):
            return None
        self.preb_block = block
        self.preb_qc = qc
        # New-View optimization: the next leader proposes straight away.
        next_view = qc.view + 1
        if self.leader_of(next_view) == self.node_id \
                and self._proposed_view < next_view:
            self._propose(block, qc, next_view)
        return True

    # ------------------------------------------------------------------
    # Reboot + rollback-resilient recovery (Algorithm 3)
    # ------------------------------------------------------------------
    def _reset_volatile(self) -> None:
        super()._reset_volatile()
        self._recovery_replies.clear()
        self._recovery_request = None
        self._recovery_nonce = None
        self._pending_recovery.clear()
        self.preb_cert = None
        self.preb_qc = None

    def _rejoin(self, rollback_attacker, init_ms: float) -> None:
        """Run recovery once the enclaves are up.

        The volatile checker state is gone; any sealed data the OS returns
        is untrusted (and Achilles never seals consensus state anyway —
        ``rollback_attacker`` has nothing to feed), so the node *must*
        complete Algorithm 3 before touching consensus.
        """
        self._current_recovery = RecoveryStats(rebooted_at=self.sim.now,
                                               init_ms=init_ms)
        self.after(init_ms, lambda: self.run_work(self._begin_recovery),
                   label=f"{self.name}.recovery_init")

    def _begin_recovery(self) -> None:
        """Step ①: broadcast the episode's recovery request.

        The nonce is minted once per episode and the *same* signed request
        is retransmitted on every retry.  Minting a fresh nonce per retry
        would discard any reply whose round trip exceeds the retry period
        (e.g. under injected link delays), livelocking the recovery; the
        nonce's freshness guarantee is per-incarnation (it binds the
        checker's reboot counter), so retransmission is replay-safe.
        """
        if self.status is not NodeStatus.RECOVERING:
            return
        if self._recovery_request is None:
            self._recovery_replies.clear()
            try:
                request = self.checker.tee_request()
            except EnclaveAbort:
                return
            finally:
                self.charge_enclave(self.checker)
            self._recovery_request = request
            self._recovery_nonce = request.nonce
            self._recovery_started_at = self.sim.now
        request = self._recovery_request
        self.sim.trace.record(self.sim.now, "recovery_request", self.node_id,
                              nonce=request.nonce[:8])
        self.broadcast(RecoveryRequestMsg(request=request))
        self._recovery_timer.start(
            self.config.recovery_retry_ms,
            lambda: self.run_work(self._begin_recovery),
        )

    def on_RecoveryRequestMsg(self, msg: RecoveryRequestMsg, src: int) -> None:
        """Step ②: a healthy node reports its checker state + stored block."""
        if self.status is not NodeStatus.RUNNING:
            return  # recovering nodes must not answer (Sec. 4.5)
        if self.config.recovery_assist:
            # A rebooted peer is asking for help: its recovery completes
            # only once a view lands on a RUNNING leader, so don't sit
            # out a peak-backoff timer armed during the fault window.
            self.pacemaker.nudge()
        self._pending_recovery[src] = (msg.request, self.sim.now)
        self._send_recovery_reply(msg.request, src)

    def _send_recovery_reply(self, request: RecoveryRequest, src: int) -> None:
        try:
            reply = self.checker.tee_reply(request)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.checker)
        self.send_to(src, RecoveryResponseMsg(
            reply=reply, block=self.preb_block, qc=self.preb_qc
        ))

    def _answer_pending_recoveries(self) -> None:
        """Re-answer outstanding recovery requests after becoming leader.

        TEErecover only accepts a reply set whose highest view is signed
        by that view's leader.  Replies sent on request arrival sample the
        responder's view at the *requester's* retry cadence, which is
        heavily biased towards long-lived views — exactly the ones led by
        the crashed victim (its leader slot times out) or by a faulty
        replica whose replies never validate.  A victim can then collect
        f+1 honest replies forever without ever holding a leader-signed
        one (observed as a recovery livelock in the Byzantine chaos
        campaigns).  Answering again right after this node's own
        ``tee_prepare`` succeeds closes the gap: that reply carries this
        node's freshly-entered view, and this node *is* its leader.
        Entries age out once the victim stops retransmitting.
        """
        horizon = self.sim.now - 4.0 * self.config.recovery_retry_ms
        for src, (request, seen_at) in list(self._pending_recovery.items()):
            if seen_at < horizon:
                del self._pending_recovery[src]
                continue
            self._send_recovery_reply(request, src)

    def on_RecoveryResponseMsg(self, msg: RecoveryResponseMsg, src: int) -> None:
        """Step ③: collect f+1 replies and restore through TEErecover."""
        if self.status is not NodeStatus.RECOVERING:
            return
        reply = msg.reply
        if reply.nonce != self._recovery_nonce or reply.requester != self.node_id:
            return
        self.charge_verify(1)
        if not reply.validate(self.keyring):
            return
        self._recovery_replies[reply.signer] = (reply, msg.block, msg.qc)
        self._try_finish_recovery()

    def _try_finish_recovery(self) -> None:
        if self.status is not NodeStatus.RECOVERING:
            # A crash landed between collecting replies and finishing (or
            # a stale callback fired after recovery already completed):
            # the episode is over; the next reboot starts a fresh one.
            return
        if len(self._recovery_replies) < self.config.f + 1:
            return
        replies = [entry[0] for entry in self._recovery_replies.values()]
        highest = max(r.vi for r in replies)
        leader_id = self.leader_of(highest)
        entry = self._recovery_replies.get(leader_id)
        if entry is None or entry[0].vi != highest:
            # The highest-view reply must come from that view's leader;
            # wait for more replies or the retry timer.
            return
        leader_reply = entry[0]
        try:
            view_cert = self.checker.tee_recover(leader_reply, replies)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.checker)

        self._recovery_timer.cancel()
        self._recovery_request = None
        # RUNNING before the adopted block commits: _apply_commitment is a
        # RUNNING-only continuation.
        self.status = NodeStatus.RUNNING
        # Adopt the block the checker adopted: the reply with the highest
        # prepv (which intersects any commit quorum), not the highest-view
        # leader's — that leader may never have stored the latest commit.
        best_signer, (best_reply, best_block, best_qc) = max(
            self._recovery_replies.items(), key=lambda item: item[1][0].prepv
        )
        if best_block is not None and best_block.hash == best_reply.preh:
            self.store.add(best_block)
            self.preb_block = best_block
            self.preb_qc = best_qc
            if best_qc is not None and best_qc.block_hash == best_block.hash:
                # Commit it once the ancestry is available.
                self._handle_commitment(best_qc, src=best_signer)
        if self.status is not NodeStatus.RUNNING:
            # The commit handler can run arbitrary downstream work, and a
            # power cut inside it crashes this node *synchronously*.  Do
            # not resurrect timers or send messages from a dead host —
            # the next reboot restarts recovery from scratch.
            return
        self._resume(view_cert.current_view)
        self.send_to(self.leader_of(self.view), NewView(cert=view_cert))

        if self._current_recovery is not None:
            stats = self._current_recovery
            stats.protocol_ms = self.sim.now - self._recovery_started_at
            self.recovery_episodes.append(stats)
            self._current_recovery = None
        self.sim.trace.record(self.sim.now, "recovery_complete", self.node_id,
                              view=self.view)

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the host (and thereby the enclaves)."""
        super().crash()
        self.pacemaker.stop()

    def cold_restart(self) -> None:
        """Operator-initiated synchronized cold boot after a *total* group
        outage.

        Recovery (Algorithm 3) needs f+1 RUNNING helpers; when the whole
        group crashed together none exist and every replica would retry
        ``TEErequest`` forever.  The operator instead restarts the group
        as at first deployment: durable committed chains (equalized by the
        operator beforehand), fresh enclaves cold-booted with the
        committed tip as the latest-stored anchor, views from 0.  Sound
        only because the outage was total — no replica retained volatile
        state and every pre-crash in-flight message died with its
        endpoints — and the caller (the deployment layer) attests exactly
        that.
        """
        self._reset_host()
        self.pacemaker.stop()
        self._reset_volatile()
        self._proposed_view = -1
        self.preb_block = self.store.committed_tip
        self.view = 0
        init_ms = self._restart_trusted()
        self.checker.cold_boot(self.preb_block.hash)
        self.status = NodeStatus.RUNNING
        self.sim.trace.record(self.sim.now, "cold_restart", self.node_id)
        self.after(init_ms, lambda: self.run_work(self._advance_view),
                   label=f"{self.name}.cold_boot")


__all__ = [
    "AchillesNode",
    "ChainedTeeNode",
    "NodeStatus",
    "RecoveryStats",
    "Proposal",
    "StoreVote",
    "Decide",
    "NewView",
    "RecoveryRequestMsg",
    "RecoveryResponseMsg",
]
