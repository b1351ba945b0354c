"""Dynamic reconfiguration (the paper's Sec. 6.2 future work).

The paper leaves membership changes open because they interact badly with
rollback: a rebooting node that trusts *sealed* configuration may wake up
in a stale group.  This module implements the tractable core of the
feature — **member replacement** — and demonstrates both the working
design and the hazard the paper warns about:

* Membership is **chain-certified, never sealed**: a replacement is a
  transaction (``RECONF REPLACE <old> <new>``) committed like any other;
  the commitment certificate is the proof a checker demands before
  switching groups (``tee_reconfigure``).  n and f stay constant, so
  quorum arithmetic is untouched.
* Activation is deferred by :data:`ACTIVATION_GRACE` views so every
  correct node processes the swap before the new member can lead.
* Standby nodes are pre-provisioned in the PKI (the paper builds the PKI
  by mutual remote attestation, Sec. 4.5) and run in a non-voting standby
  status until activated.
* A rebooting node recovers from the members *it learns from replies*,
  not from sealed config — `tests/integration/test_reconfiguration.py`
  shows how trusting a stale sealed membership goes wrong.

Everything lives in subclasses (:class:`ReconfigurableChecker`,
:class:`ReconfigurableAchillesNode`); the stock Achilles code path is
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.chain.block import Block
from repro.chain.transaction import Transaction
from repro.core.certificates import CommitmentCertificate
from repro.core.checker import AchillesChecker
from repro.core.node import AchillesNode, NodeStatus
from repro.errors import EnclaveAbort
from repro.tee.enclave import ecall

#: Views between committing a replacement and it taking effect.
ACTIVATION_GRACE = 2

RECONF_PREFIX = "RECONF REPLACE"


def make_reconf_tx(old_member: int, new_member: int, tx_id: int,
                   client_id: int = 63) -> Transaction:
    """A membership-replacement transaction."""
    return Transaction(
        client_id=client_id, tx_id=tx_id,
        payload=f"{RECONF_PREFIX} {old_member} {new_member}",
    )


def parse_reconf(payload: str) -> Optional[tuple[int, int]]:
    """Extract (old, new) from a reconfiguration payload, else None."""
    if not payload.startswith(RECONF_PREFIX):
        return None
    try:
        _r, _v, old, new = payload.split(" ")
        return int(old), int(new)
    except ValueError:
        return None


@dataclass(frozen=True)
class PendingReconfiguration:
    """A committed, not-yet-active membership change."""

    members: tuple[int, ...]
    activation_view: int


class ReconfigurableChecker(AchillesChecker):
    """CHECKER with chain-certified membership.

    The leader schedule walks the *current member list* instead of
    ``view % n``; the list changes only through :meth:`tee_reconfigure`,
    which demands a commitment certificate for the block that carries the
    replacement transaction.
    """

    def __init__(self, *args, members: Sequence[int], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.members: tuple[int, ...] = tuple(members)
        self._pending: Optional[PendingReconfiguration] = None

    def leader_of(self, view: int) -> int:
        """Membership-aware round-robin schedule."""
        members = self.members
        if self._pending is not None and view >= self._pending.activation_view:
            members = self._pending.members
        return members[view % len(members)]

    def _maybe_activate(self) -> None:
        if self._pending is not None and self.state.vi >= self._pending.activation_view:
            self.members = self._pending.members
            self._pending = None

    # The activation check piggybacks on every view-advancing ECALL.
    def tee_store(self, block_cert):  # noqa: D102 (inherits doc)
        result = super().tee_store(block_cert)
        self._maybe_activate()
        return result

    def tee_view(self):  # noqa: D102
        result = super().tee_view()
        self._maybe_activate()
        return result

    @ecall
    def tee_reconfigure(self, qc: CommitmentCertificate, block: Block) -> bool:
        """Accept a chain-certified membership replacement.

        Checks: the certificate is valid under the *current* PKI, it names
        ``block``, and the block carries exactly one replacement of a
        current member by a known standby.  The change activates at
        ``block.view + ACTIVATION_GRACE``.
        """
        self.charge_verify(self.f + 1)
        if not qc.validate(self._keyring, self.f + 1):
            raise EnclaveAbort("invalid commitment certificate")
        self.charge_hash(block.wire_size())
        if qc.block_hash != block.hash:
            raise EnclaveAbort("certificate does not name this block")
        changes = [c for c in map(parse_reconf, block.txs.column("payloads"))
                   if c is not None]
        if len(changes) != 1:
            raise EnclaveAbort("expected exactly one replacement")
        old, new = changes[0]
        if old not in self.members:
            raise EnclaveAbort(f"node {old} is not a current member")
        if new in self.members:
            raise EnclaveAbort(f"node {new} is already a member")
        if new not in self._keyring:
            raise EnclaveAbort(f"standby {new} is not in the attested PKI")
        members = tuple(new if m == old else m for m in self.members)
        activation = block.view + ACTIVATION_GRACE
        self._pending = PendingReconfiguration(members=members,
                                               activation_view=activation)
        self._maybe_activate()
        return True

    def wipe_volatile_state(self) -> None:
        """Reboot: membership knowledge is volatile too (it must be
        re-learned from the chain, never from sealed storage)."""
        super().wipe_volatile_state()
        self._pending = None


class ReconfigurableAchillesNode(AchillesNode):
    """Achilles replica with membership replacement.

    ``initial_members`` is the starting committee; any provisioned node
    outside it runs as a non-voting standby until a replacement activates
    it.  The keyring contains members *and* standbys (pre-attested PKI).
    """

    def __init__(self, *args, initial_members: Sequence[int], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.members: tuple[int, ...] = tuple(initial_members)
        self.checker = ReconfigurableChecker(
            node_id=self.node_id, n=len(self.members), f=self.config.f,
            private_key=self.keypair.private, keyring=self.keyring,
            profile=self.config.enclave, crypto=self.config.crypto,
            members=self.members,
        )
        self._pending_members: Optional[PendingReconfiguration] = None
        #: Standbys observe the chain (commits, sync) but never vote,
        #: propose, or send view certificates until activated.
        self.is_standby = self.node_id not in self.members
        self.reconfigurations_applied = 0

    # -- membership-aware schedule --------------------------------------
    def leader_of(self, view: int) -> int:
        """Mirror of the checker's membership-aware schedule."""
        members = self.members
        if self._pending_members is not None and \
                view >= self._pending_members.activation_view:
            members = self._pending_members.members
        return members[view % len(members)]

    def _active_members(self, view: int) -> tuple[int, ...]:
        if self._pending_members is not None and \
                view >= self._pending_members.activation_view:
            return self._pending_members.members
        return self.members

    def broadcast(self, payload, include_self: bool = False) -> None:
        """Consensus traffic goes to current members plus any standby that
        is about to join (so it can track the chain)."""
        targets = set(self._active_members(self.view)) | set(self.members)
        if self._pending_members is not None:
            targets |= set(self._pending_members.members)
        for dst in sorted(targets):
            if dst != self.node_id:
                self._outbox.append((dst, payload))
        if include_self:
            self.send_to(self.node_id, payload)

    def start(self) -> None:
        """Members start normally; standbys observe until activated."""
        if not self.is_standby:
            super().start()

    # Standbys track the chain but take no consensus actions.
    def _store_and_vote(self, block, cert) -> None:  # noqa: D102
        if self.is_standby:
            self.store.add(block)
            return
        super()._store_and_vote(block, cert)

    def _on_timeout(self, view: int) -> None:  # noqa: D102
        if self.is_standby:
            return
        super()._on_timeout(view)

    def on_StoreVote(self, msg, src: int) -> None:
        """Only current members' votes count toward the quorum."""
        if src != self.node_id and src not in self._active_members(msg.cert.view):
            return
        super().on_StoreVote(msg, src)

    # -- applying committed replacements ---------------------------------
    def _apply_commitment(self, qc, block) -> None:
        was_committed = self.store.is_committed(qc.block_hash)
        super()._apply_commitment(qc, block)
        if was_committed or not self.store.is_committed(qc.block_hash):
            return  # nothing new actually committed (e.g. ancestry pending)
        changes = [c for c in map(parse_reconf, block.txs.column("payloads"))
                   if c is not None]
        if not changes:
            return
        old, new = changes[0]
        if old not in self.members or new in self.members:
            return
        try:
            self.checker.tee_reconfigure(qc, block)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.checker)
        members = tuple(new if m == old else m for m in self.members)
        self._pending_members = PendingReconfiguration(
            members=members, activation_view=block.view + ACTIVATION_GRACE)
        self._maybe_activate_members()
        self.sim.trace.record(self.sim.now, "reconfiguration", self.node_id,
                              old=old, new=new,
                              activation=block.view + ACTIVATION_GRACE)

    def _maybe_activate_members(self) -> None:
        pending = self._pending_members
        if pending is None or self.view < pending.activation_view:
            return
        self.members = pending.members
        self._pending_members = None
        self.reconfigurations_applied += 1
        if self.node_id in self.members and self.is_standby:
            # A standby becomes a full member: join via the timeout path.
            self.is_standby = False
            self.run_work(self._advance_view)
        elif self.node_id not in self.members and not self.is_standby:
            # Replaced: retire to observer (keeps serving sync requests).
            self.is_standby = True
            self.pacemaker.stop()

    def on_Decide(self, msg, src: int) -> None:  # noqa: D102 (inherits doc)
        super().on_Decide(msg, src)
        self._maybe_activate_members()

    def _advance_view(self) -> None:  # noqa: D102 (inherits doc)
        super()._advance_view()
        self._maybe_activate_members()


__all__ = [
    "ACTIVATION_GRACE",
    "PendingReconfiguration",
    "ReconfigurableChecker",
    "ReconfigurableAchillesNode",
    "make_reconf_tx",
    "parse_reconf",
]


def build_reconfigurable_cluster(
    f: int,
    standbys: int = 1,
    latency=None,
    config=None,
    source_factory=None,
    listener=None,
    seed: int = 0,
):
    """Build an Achilles deployment with ``standbys`` pre-provisioned
    non-voting nodes.  The committee is nodes ``0..2f``; standbys are
    ``2f+1..2f+standbys`` and share the attested PKI from the start.
    """
    from repro.consensus.cluster import build_cluster
    from repro.consensus.config import ProtocolConfig
    from repro.net.latency import LAN_PROFILE

    committee = 2 * f + 1
    total = committee + standbys
    if config is None:
        config = ProtocolConfig(n=total, f=f)
    else:
        config = config.with_(n=total, f=f)
    members = tuple(range(committee))

    def factory(sim, network, node_id, cfg, keypair, keyring, source, lst):
        return ReconfigurableAchillesNode(
            sim, network, node_id, cfg, keypair, keyring, source, lst,
            initial_members=members,
        )

    return build_cluster(
        node_factory=factory,
        config=config,
        latency=latency if latency is not None else LAN_PROFILE,
        source_factory=source_factory,
        listener=listener,
        seed=seed,
    )


__all__.append("build_reconfigurable_cluster")
