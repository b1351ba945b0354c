"""Shared pieces for the baseline protocols.

Damysus and OneShot use per-phase votes and quorum certificates;
:class:`PhaseVote` / :class:`PhaseQC` factor that out.  The phase tag is
part of the signed statement, so a prepare vote can never be replayed as
a commit vote.  MinBFT and FlexiBFT keep a stable leader and replace it
the same way; :class:`StableLeaderNode` / :class:`ViewChangeVote` factor
that out.

``RStateMixin`` wires the paper's rollback-*prevention* recipe (Sec. 2.1)
into a trusted component: every state-updating ECALL seals the state to
untrusted storage and increments a persistent counter, charging the
counter's write latency to the enclave invocation.  This is exactly the
overhead the -R variants pay and Achilles avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import ClassVar

from repro.consensus.base import ReplicaBase
from repro.consensus.pacemaker import Pacemaker
from repro.crypto.hashing import cached_property
from repro.crypto.signatures import (QuorumCertificate, Signature,
                                     SignatureList, SignedStatement)
from repro.net.message import HASH_BYTES, HEADER_BYTES, SIGNATURE_BYTES
from repro.tee.rprotect import RStateMixin  # noqa: F401 (re-export)

#: Phase tags used in signed statements across the baselines.
PREP = "PREP"
CMT = "CMT"


@dataclass(frozen=True)
class PhaseVote(SignedStatement):
    """A vote for block ``block_hash`` at ``view`` in a named phase."""

    phase: str
    block_hash: str
    view: int
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return (self.phase, self.block_hash, self.view)

    @cached_property
    def statement_digest(self) -> str:
        """Memoized digest of ``(phase, block_hash, view)``, encoded in
        line the way :func:`~repro.crypto.hashing.digest_of` encodes it,
        as :func:`~repro.crypto.signatures.hash_view_digest` does for a
        fixed tag (pinned equal to it by
        ``tests/unit/test_signed_statements.py``)."""
        phase = self.phase.encode()
        block_hash = self.block_hash.encode()
        return sha256(b"s%d:%ss%d:%si%d" % (
            len(phase), phase, len(block_hash), block_hash,
            self.view)).hexdigest()

    def wire_size(self) -> int:
        """Serialized size."""
        return len(self.phase) + HASH_BYTES + 8 + SIGNATURE_BYTES


@dataclass(frozen=True)
class PhaseQC(QuorumCertificate):
    """A quorum certificate: ``threshold`` distinct phase votes."""

    phase: str
    block_hash: str
    view: int
    signatures: SignatureList

    #: Each member signature covers a phase vote's statement.
    statement = PhaseVote.statement
    statement_digest = PhaseVote.statement_digest

    def wire_size(self) -> int:
        """Serialized size."""
        return len(self.phase) + HASH_BYTES + 8 + SIGNATURE_BYTES * len(self.signatures)


@dataclass(frozen=True)
class ViewChangeVote(SignedStatement):
    """Node → all: a signed vote to install leader epoch ``new_view``.
    Each stable-leader protocol subclasses it under its own message name
    and signing tag."""

    TAG: ClassVar[str]
    new_view: int
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return (self.TAG, self.new_view)

    #: Envelope size (``intern_size``): every view change has the same one.
    _env_size = HEADER_BYTES + 3 + 8 + SIGNATURE_BYTES

    def wire_size(self) -> int:
        """Serialized size."""
        return 3 + 8 + SIGNATURE_BYTES


class StableLeaderNode(ReplicaBase):
    """A replica whose leader (``view % n``) stays until ``config.quorum``
    signed view-change votes install the next one (MinBFT, FlexiBFT).

    A protocol names its :class:`ViewChangeVote` message in
    :attr:`VIEW_CHANGE`, binds :meth:`_on_view_change` to it, and says in
    :meth:`_view_installed` what follows a leader change.
    """

    VIEW_CHANGE: type
    #: Join a view change someone else proposed (PBFT-style echo).
    ECHO_VIEW_CHANGE = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.view = 0  # leader epoch: leader = view % n, stable until VC
        self._vc_votes = self._new_collector(self.config.quorum)
        self.pacemaker = Pacemaker(self, self.config.base_timeout_ms,
                                   self._on_timeout)

    def start(self) -> None:
        """The initial leader begins proposing at once."""
        self.pacemaker.view_started(self.view)
        if self.is_leader(self.view):
            self.run_work(self._lead)

    def _rejoin(self, rollback_attacker, init_ms: float) -> None:
        """The trusted component's state persists: rejoin at once.  What
        the quorum finished meanwhile comes back through block sync."""
        self._resume()
        if self.is_leader(self.view):
            self.run_work(self._lead)

    def _lead(self) -> None:
        """Hook: propose on the committed tip as ``self.view``'s leader."""
        raise NotImplementedError

    def _on_timeout(self, view: int) -> None:
        self.run_work(self._send_view_change)

    def _view_change_vote(self, new_view: int) -> ViewChangeVote:
        self.charge_sign(1)
        return self.VIEW_CHANGE.issue(self.keypair.private, new_view=new_view)

    def _send_view_change(self) -> None:
        vote = self._view_change_vote(self.view + 1)
        self.broadcast(vote)
        self._collect_view_change(vote)
        self.pacemaker.view_started(self.view)

    def _on_view_change(self, msg: ViewChangeVote, src: int) -> None:
        """Install a new leader on a quorum of view-change votes."""
        self.charge_verify(1)
        if not msg.validate(self.keyring):
            return
        self._collect_view_change(msg)

    def _collect_view_change(self, msg: ViewChangeVote) -> None:
        new_view = msg.new_view
        if new_view <= self.view:
            return
        votes, key = self._vc_votes, (new_view,)
        quorum = votes.add(key, msg.signature.signer, msg)
        if self.ECHO_VIEW_CHANGE and not votes.voted(key, self.node_id):
            # Nodes whose timeouts diverged would otherwise each vote only
            # for their own view+1 and never assemble a quorum on any
            # single view.  Safety is unaffected — the view number is just
            # a leader epoch; equivocation is prevented by the USIG.
            echo = self._view_change_vote(new_view)
            self.broadcast(echo)
            quorum = votes.add(key, self.node_id, echo) or quorum
        if quorum is None:
            return
        self.view = new_view
        self.pacemaker.view_started(new_view)
        if self._obs.enabled:
            self._obs.instant("view_change", self.node_id, self.sim.now,
                              view=new_view)
        votes.prune(new_view)
        self._view_installed()

    def _view_installed(self) -> None:
        """Hook: ``self.view`` was just installed."""
        if self.is_leader(self.view):
            self._lead()


__all__ = ["PhaseVote", "PhaseQC", "RStateMixin", "PREP", "CMT",
           "ViewChangeVote", "StableLeaderNode"]
