"""Damysus replica (chained two-phase normal case, paper Appendix A).

Per view: ① NEW-VIEW — backups' checkers pre-issue view certificates that
reach the next leader; ② PREPARE — the leader extends the highest prepared
block (via the accumulator) and collects f+1 prepare votes; ③ PRE-COMMIT —
the prepared QC is broadcast, checkers record the prepared pair and return
commit votes; ④ DECIDE — f+1 commit votes are broadcast and everyone
executes.  Six end-to-end communication steps, O(n) messages.

Damysus-R is the same node with a persistent counter attached to the
checker (``config.counter_factory``): each of the two checker calls per
node per view then pays a counter write on the critical path.  A reboot
restores the checker from its seal, as OneShot's does; -R halts the
replica when the counter refuses the blob.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common import CMT, PREP, PhaseQC, PhaseVote
from repro.baselines.damysus.checker import DamysusChecker
from repro.chain.block import Block
from repro.core.certificates import BlockCertificate, ViewCertificate
from repro.core.node import ChainedTeeNode
from repro.errors import EnclaveAbort
from repro.net.message import HASH_BYTES, HEADER_BYTES, SIGNATURE_BYTES


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

    #: Envelope size (``intern_size``): every vote has the same one.
    _env_size = HEADER_BYTES + len(PREP) + HASH_BYTES + 8 + SIGNATURE_BYTES

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

    #: Envelope size (``intern_size``): every vote has the same one.
    _env_size = HEADER_BYTES + len(CMT) + HASH_BYTES + 8 + SIGNATURE_BYTES

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

    #: Envelope size (``intern_size``): every view certificate has the
    #: same one.
    _env_size = HEADER_BYTES + 8 + HASH_BYTES + 16 + SIGNATURE_BYTES

    def wire_size(self) -> int:
        """Serialized size."""
        return self.cert.wire_size()


class DamysusNode(ChainedTeeNode):
    """A Damysus replica (plain or -R depending on the counter factory)."""

    BYZ_PROPOSAL_KINDS = ("DProposal",)
    BYZ_VOTE_KINDS = ("DPrepareVote", "DCommitVote")
    BYZ_DECIDE_KINDS = ("DDecide",)
    NEW_VIEW = DNewView
    RESTORES_FROM_SEAL = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._prepare_votes = self._new_collector(self.config.f + 1)
        self._commit_votes = self._new_collector(self.config.f + 1)

    def _make_checker(self, **trusted) -> DamysusChecker:
        return DamysusChecker(counter=self._make_counter(), **trusted)

    def _tee_next_view(self) -> ViewCertificate:
        return self.checker.tee_new_view()

    on_DNewView = ChainedTeeNode._on_new_view
    on_DProposal = ChainedTeeNode._on_proposal
    on_DDecide = ChainedTeeNode._on_decide

    # ------------------------------------------------------------------
    # PREPARE phase
    # ------------------------------------------------------------------
    def _tee_prepare(self, block: Block, acc) -> tuple[BlockCertificate, PhaseVote]:
        return self.checker.tee_prepare(block, acc)

    def _announce(self, block: Block, prepared) -> None:
        block_cert, own_vote = prepared
        self.broadcast(DProposal(block=block, block_cert=block_cert))
        self.on_DPrepareVote(DPrepareVote(vote=own_vote), self.node_id)

    def _store_and_vote(self, block: Block, cert: BlockCertificate) -> None:
        """Backup: the checker's prepare vote for a validated block."""
        # Certificate verification is charged inside tee_vote_prepare.
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
        vote = msg.vote
        if vote.phase != PREP:
            return
        signatures = self._quorum_signatures(self._prepare_votes, vote)
        if signatures is None:
            return
        if self._obs.enabled:
            self._obs.block_milestone(vote.block_hash, "prepared",
                                      self.node_id, self.sim.now)
        qc = PhaseQC(phase=PREP, block_hash=vote.block_hash, view=vote.view,
                     signatures=signatures)
        prepared = DPrepared(qc=qc)
        self.broadcast(prepared)
        self.on_DPrepared(prepared, self.node_id)

    # ------------------------------------------------------------------
    # PRE-COMMIT phase
    # ------------------------------------------------------------------
    def on_DPrepared(self, msg: DPrepared, src: int) -> None:
        """All nodes: record the prepared block, send the commit vote."""
        qc = msg.qc
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
            self.on_DCommitVote(DCommitVote(vote=commit_vote), self.node_id)
        else:
            self.send_to(leader, DCommitVote(vote=commit_vote))
        # Chaining: the NEW-VIEW for v+1 ships now, overlapping the DECIDE
        # phase of view v — this is the pipelining that gives chained
        # Damysus its throughput (commit latency still spans both phases).
        self.send_to(self.leader_of(new_view.current_view), DNewView(new_view))

    def on_DCommitVote(self, msg: DCommitVote, src: int) -> None:
        """Leader: combine f+1 commit votes and broadcast DECIDE."""
        vote = msg.vote
        if vote.phase != CMT:
            return
        signatures = self._quorum_signatures(self._commit_votes, vote)
        if signatures is None:
            return
        if self._obs.enabled:
            self._obs.block_milestone(vote.block_hash, "cert", self.node_id,
                                      self.sim.now)
        qc = PhaseQC(phase=CMT, block_hash=vote.block_hash, view=vote.view,
                     signatures=signatures)
        self._handle_commitment(qc, self.node_id)
        self.broadcast(DDecide(qc=qc))


__all__ = [
    "DamysusNode",
    "DProposal",
    "DPrepareVote",
    "DPrepared",
    "DCommitVote",
    "DDecide",
    "DNewView",
]
