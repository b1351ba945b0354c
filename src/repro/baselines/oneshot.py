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

from repro.baselines.common import PREP, PhaseQC, PhaseVote, RStateMixin
from repro.chain.block import Block
from repro.consensus.base import NodeStatus
from repro.core.certificates import (
    AccumulatorCertificate,
    BlockCertificate,
    CommitmentCertificate,
    StoreCertificate,
    ViewCertificate,
)
from repro.core.checker import AchillesChecker, CheckerState
from repro.core.node import AchillesNode, ChainedTeeNode, StoreVote
from repro.errors import EnclaveAbort
from repro.net.message import HASH_BYTES, HEADER_BYTES, SIGNATURE_BYTES
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

    #: Envelope size (``intern_size``): every vote has the same one.
    _env_size = HEADER_BYTES + len(PREP) + HASH_BYTES + 8 + SIGNATURE_BYTES

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
    """Achilles' rules with counter-protected state updates and a
    slow-path voting round; no cooperative recovery.

    Every ECALL here is one transition, one sealed update and — with a
    counter — one counter write, however many of Algorithm 2's rules it
    composes; the rules themselves are :class:`AchillesChecker`'s, entered
    below their own ECALL gate."""

    _prepare = AchillesChecker.tee_prepare.__wrapped__
    _store = AchillesChecker.tee_store.__wrapped__
    _view = AchillesChecker.tee_view.__wrapped__

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
        block_cert = self._prepare(block, qc)
        store_cert = self._store(block_cert)
        self.protect_state_update()
        return block_cert, store_cert

    @ecall
    def tee_store_fast(self, block_cert: BlockCertificate) -> StoreCertificate:
        """Backup's single fast-path ECALL."""
        cert = self._store(block_cert)
        self.protect_state_update()
        return cert

    # -- slow path: proposal after a view change ------------------------
    @ecall
    def tee_prepare_slow(
        self, block: Block, acc: AccumulatorCertificate
    ) -> tuple[BlockCertificate, PhaseVote]:
        """Certify the proposal and the leader's own PRE vote."""
        block_cert = self._prepare(block, acc)
        self._pre_voted_view = self.state.vi
        self.charge_sign(1)
        pre_vote = PhaseVote.issue(
            self._sk, phase=PREP, block_hash=block.hash, view=self.state.vi)
        self.protect_state_update()
        return block_cert, pre_vote

    @ecall
    def tee_pre_vote(self, block_cert: BlockCertificate) -> PhaseVote:
        """Backup's first slow-path round."""
        v = self._admit(block_cert)
        if self._pre_voted_view >= v:
            raise EnclaveAbort("already pre-voted in this view")
        self._pre_voted_view = v
        self.protect_state_update()
        self.charge_sign(1)
        return PhaseVote.issue(
            self._sk, phase=PREP, block_hash=block_cert.block_hash, view=v)

    @ecall
    def tee_store_slow(
        self, block_cert: BlockCertificate, pre_qc: PhaseQC
    ) -> StoreCertificate:
        """Backup's second slow-path round: store after seeing the pre-QC."""
        self._require_ready()  # before the pre-QC check is charged
        self.charge_verify(self.f + 1)
        if pre_qc.phase != PREP or not pre_qc.validate(self._keyring, self.f + 1):
            raise EnclaveAbort("invalid pre-QC")
        if pre_qc.block_hash != block_cert.block_hash or pre_qc.view != block_cert.view:
            raise EnclaveAbort("pre-QC does not match the block certificate")
        cert = self._store(block_cert)
        self.protect_state_update()
        return cert

    @ecall
    def tee_view_os(self) -> ViewCertificate:
        """Timeout path (counter-protected TEEview)."""
        cert = self._view()
        self.protect_state_update()
        return cert

    # -- what a reboot seals and restores (RStateMixin.tee_restore) -------
    def _sealed_payload(self) -> tuple:
        st = self.state
        return (st.vi, st.proposed, st.voted, st.prepv, st.preph, self._pre_voted_view)

    def _load_sealed(self, payload: tuple) -> None:
        *state, self._pre_voted_view = payload
        self.state = CheckerState(*state)


class OneShotNode(AchillesNode):
    """OneShot replica: Achilles-shaped fast path, two-phase slow path."""

    BYZ_PROPOSAL_KINDS = ("OSProposal",)
    BYZ_VOTE_KINDS = ("StoreVote", "OSPreVote")
    BYZ_DECIDE_KINDS = ("Decide",)
    RESTORES_FROM_SEAL = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pre_votes = self._new_collector(self.config.f + 1)
        self._slow_blocks: dict[int, tuple[Block, BlockCertificate]] = {}

    def _make_checker(self, **trusted) -> OneShotChecker:
        return OneShotChecker(counter=self._make_counter(), **trusted)

    def _tee_next_view(self):
        """OneShot's counter-protected TEEview."""
        return self.checker.tee_view_os()

    # ------------------------------------------------------------------
    # Proposal — fast vs slow by justification type
    # ------------------------------------------------------------------
    def _tee_prepare(self, block: Block, justification):
        if isinstance(justification, AccumulatorCertificate):
            return self.checker.tee_prepare_slow(block, justification)
        return self.checker.tee_prepare_fast(block, justification)

    def _announce(self, block: Block, prepared) -> None:
        block_cert, own_vote = prepared
        slow = isinstance(own_vote, PhaseVote)
        self._answer_pending_recoveries()
        self.broadcast(OSProposal(block=block, block_cert=block_cert, slow=slow))
        if slow:
            self._slow_blocks[block.view] = (block, block_cert)
            self.on_OSPreVote(OSPreVote(vote=own_vote), self.node_id)
        else:
            self.preb_block = block
            self.preb_cert = block_cert
            self.preb_qc = None
            self.send_to(self.node_id, StoreVote(cert=own_vote))

    # Achilles' Proposal handler is unused; OneShot ships OSProposal.
    def on_Proposal(self, msg, src: int) -> None:  # pragma: no cover - guard
        """OneShot does not speak the Achilles Proposal message."""
        return

    def on_OSProposal(self, msg: OSProposal, src: int) -> None:
        """Backup: fast path stores immediately; slow path pre-votes."""
        if self._on_proposal(msg, src, self._pre_vote if msg.slow else None) \
                and msg.slow:
            # Nothing reads this before the handler returns, so recording
            # it after admission equals recording it before the ancestry
            # wait.
            self._slow_blocks[msg.block.view] = (msg.block, msg.block_cert)

    def _store_and_vote(self, block: Block, cert: BlockCertificate,
                        pre_qc: Optional[PhaseQC] = None) -> None:
        """The store round: the fast path's only one, or — given the
        pre-QC — the slow path's second."""
        try:
            if pre_qc is None:
                store_cert = self.checker.tee_store_fast(cert)
            else:
                store_cert = self.checker.tee_store_slow(cert, pre_qc)
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
        self.send_to(self.leader_of(block.view), StoreVote(cert=store_cert))

    # ------------------------------------------------------------------
    # Slow path rounds
    # ------------------------------------------------------------------
    def _pre_vote(self, block: Block, cert: BlockCertificate) -> None:
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
        vote = msg.vote
        if self.status is not NodeStatus.RUNNING or vote.phase != PREP:
            return
        signatures = self._quorum_signatures(self._pre_votes, vote)
        if signatures is None:
            return
        pre_qc = OSPreQC(qc=PhaseQC(
            phase=PREP, block_hash=vote.block_hash, view=vote.view,
            signatures=signatures))
        self.broadcast(pre_qc)
        self.on_OSPreQC(pre_qc, self.node_id)

    def on_OSPreQC(self, msg: OSPreQC, src: int) -> None:
        """All nodes: second slow-path round — store and vote."""
        if self.status is not NodeStatus.RUNNING:
            return
        qc = msg.qc
        entry = self._slow_blocks.get(qc.view)
        if entry is None:
            return
        block, cert = entry
        if qc.block_hash != block.hash:
            return
        self.charge_verify(len(qc.signatures))
        if not qc.validate(self.keyring, self.config.f + 1):
            return
        self._store_and_vote(block, cert, qc)

    # ------------------------------------------------------------------
    # Reboot: sealed-state restore (no cooperative recovery in OneShot)
    # ------------------------------------------------------------------
    _rejoin = ChainedTeeNode._rejoin

    def _reset_volatile(self) -> None:
        super()._reset_volatile()
        self._slow_blocks.clear()

    def _prune(self, committed_view: int) -> None:
        super()._prune(committed_view)
        for view in [v for v in self._slow_blocks if v <= committed_view]:
            del self._slow_blocks[view]


__all__ = ["OneShotNode", "OneShotChecker", "OSProposal", "OSPreVote", "OSPreQC"]
