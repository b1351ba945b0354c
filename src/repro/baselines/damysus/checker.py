"""Damysus' CHECKER trusted component (paper Appendix A).

Differences from the Achilles checker (Sec. 4.3):

* it records the last **prepared** block — a block certified by f+1
  prepare votes — rather than the last block received from a leader;
* it certifies two voting rounds per view (prepare + commit);
* in the -R configuration every state update runs the store-then-increment
  rollback-prevention dance (:class:`~repro.baselines.common.RStateMixin`),
  and after a reboot the sealed state is only accepted if its version
  matches the persistent counter.

What it shares with the Achilles checker it calls on
:class:`~repro.core.checker.Checker`: the gate, the accumulator
justification, the one-proposal-per-view guard, and admitting a block
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common import CMT, PREP, PhaseQC, PhaseVote, RStateMixin
from repro.chain.block import Block
from repro.core.certificates import AccumulatorCertificate, BlockCertificate, ViewCertificate
from repro.core.checker import Checker
from repro.crypto.hashing import GENESIS_HASH
from repro.errors import EnclaveAbort
from repro.tee.enclave import ecall


@dataclass
class DamysusState:
    """Volatile checker state; in field order, the sealed snapshot."""

    vi: int = 0
    proposed: bool = False
    prepare_voted: bool = False
    recorded: bool = False
    prepv: int = 0
    preph: str = GENESIS_HASH


class DamysusChecker(RStateMixin, Checker):
    """Damysus' CHECKER (optionally counter-protected: Damysus-R)."""

    IDENTITY = "damysus-checker"
    STATE = DamysusState

    def __init__(self, *args, counter=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.attach_counter(counter)

    def _enter(self, view: int) -> None:
        st = self.state
        st.vi = view
        st.proposed = False
        st.prepare_voted = False
        st.recorded = False

    # ------------------------------------------------------------------
    # Normal-case ECALLs
    # ------------------------------------------------------------------
    @ecall
    def tee_prepare(
        self, block: Block, acc: AccumulatorCertificate
    ) -> tuple[BlockCertificate, PhaseVote]:
        """Certify the leader's proposal; also emit the leader's own
        prepare vote (so leader and backups both make two checker calls
        per view, matching the paper's -R cost accounting)."""
        self._require_ready()
        self.charge_hash(block.wire_size())
        self._extends_accumulated(block, acc)
        self._claim_proposal(block)
        self.state.prepare_voted = True
        self.protect_state_update()
        self.charge_sign(2)
        vi = self.state.vi
        return (
            BlockCertificate.issue(self._sk, block_hash=block.hash, view=vi),
            PhaseVote.issue(self._sk, phase=PREP, block_hash=block.hash, view=vi),
        )

    @ecall
    def tee_vote_prepare(self, block_cert: BlockCertificate) -> PhaseVote:
        """Backup's first checker call: vote to prepare the block."""
        v = self._admit(block_cert)
        if self.state.prepare_voted:
            raise EnclaveAbort("already prepare-voted in this view")
        self.state.prepare_voted = True
        self.protect_state_update()
        self.charge_sign(1)
        return PhaseVote.issue(
            self._sk, phase=PREP, block_hash=block_cert.block_hash, view=v)

    @ecall
    def tee_record_prepared(
        self, qc: PhaseQC
    ) -> tuple[PhaseVote, ViewCertificate]:
        """Second checker call: record the prepared block, emit the commit
        vote, and pre-issue the NEW-VIEW certificate for the next view."""
        self._require_ready()
        st = self.state
        self.charge_verify(self.f + 1)
        if qc.phase != PREP or not qc.validate(self._keyring, self.f + 1):
            raise EnclaveAbort("invalid prepared QC")
        v = qc.view
        if v < st.vi:
            raise EnclaveAbort("stale prepared QC")
        if v > st.vi:
            self._enter(v)
        if st.recorded:
            raise EnclaveAbort("already recorded a prepared block in this view")
        st.recorded = True
        st.prepv = v
        st.preph = qc.block_hash
        commit_vote = PhaseVote.issue(
            self._sk, phase=CMT, block_hash=qc.block_hash, view=v)
        # The view's voting work is done; enter the next view.
        self._enter(v + 1)
        self.protect_state_update()
        self.charge_sign(2)
        new_view = ViewCertificate.issue(
            self._sk, block_hash=st.preph, block_view=st.prepv,
            current_view=st.vi)
        return commit_vote, new_view

    @ecall
    def tee_new_view(self) -> ViewCertificate:
        """Timeout path: advance the view and certify the prepared pair."""
        self._require_ready()
        self._enter(self.state.vi + 1)
        self.protect_state_update()
        return self._certify_view()

    # ------------------------------------------------------------------
    # Reboot path: RStateMixin.tee_restore.  With a persistent counter
    # attached (Damysus-R) the snapshot's bound version must equal the
    # counter value — a stale snapshot is detected and rejected.  Without
    # one (plain Damysus) **any authentic snapshot is accepted**, which is
    # the rollback vulnerability the Achilles paper targets;
    # `tests/integration/test_rollback_attacks.py` demonstrates the
    # resulting equivocation.
    # ------------------------------------------------------------------
    def _sealed_payload(self) -> tuple:
        st = self.state
        return (st.vi, st.proposed, st.prepare_voted, st.recorded,
                st.prepv, st.preph)

    def _load_sealed(self, payload: tuple) -> None:
        self.state = DamysusState(*payload)


__all__ = ["DamysusChecker", "DamysusState", "PREP", "CMT"]
