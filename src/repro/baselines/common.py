"""Shared pieces for the baseline protocols.

Damysus, OneShot, and FlexiBFT all use per-phase votes and quorum
certificates; :class:`PhaseVote` / :class:`PhaseQC` factor that out.  The
phase tag is part of the signed statement, so a prepare vote can never be
replayed as a commit vote.

``RStateMixin`` wires the paper's rollback-*prevention* recipe (Sec. 2.1)
into a trusted component: every state-updating ECALL seals the state to
untrusted storage and increments a persistent counter, charging the
counter's write latency to the enclave invocation.  This is exactly the
overhead the -R variants pay and Achilles avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.keys import Keyring
from repro.crypto.signatures import Signature, SignatureList, verify
from repro.errors import EnclaveAbort, SealingError
from repro.net.message import HASH_BYTES, SIGNATURE_BYTES
from repro.tee.rprotect import RStateMixin  # noqa: F401 (re-export)

#: Phase tags used in signed statements across the baselines.
PREP = "PREP"
CMT = "CMT"


@dataclass(frozen=True)
class PhaseVote:
    """A vote for block ``block_hash`` at ``view`` in a named phase."""

    phase: str
    block_hash: str
    view: int
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return (self.phase, self.block_hash, self.view)

    def validate(self, keyring: Keyring) -> bool:
        """Check the signature."""
        return verify(keyring, self.signature, *self.statement())

    def wire_size(self) -> int:
        """Serialized size."""
        return len(self.phase) + HASH_BYTES + 8 + SIGNATURE_BYTES


@dataclass(frozen=True)
class PhaseQC:
    """A quorum certificate: ``threshold`` distinct phase votes."""

    phase: str
    block_hash: str
    view: int
    signatures: SignatureList

    def statement(self) -> tuple:
        """The tuple each member vote signed."""
        return (self.phase, self.block_hash, self.view)

    def validate(self, keyring: Keyring, threshold: int) -> bool:
        """≥ threshold distinct valid signers.

        Memoized per ``(keyring, threshold)``: a QC object is shared by
        every node it reaches, so the full signature sweep runs once per
        certificate instead of once per receiving node.
        """
        memo = self.__dict__.get("_validate_memo")
        if memo is not None and memo[0] is keyring and memo[1] == threshold:
            return memo[2]
        statement = self.statement()
        valid = {
            s.signer
            for s in self.signatures.signatures
            if verify(keyring, s, *statement)
        }
        ok = len(valid) >= threshold
        object.__setattr__(self, "_validate_memo", (keyring, threshold, ok))
        return ok

    def wire_size(self) -> int:
        """Serialized size."""
        return len(self.phase) + HASH_BYTES + 8 + SIGNATURE_BYTES * len(self.signatures)


def schedule_sealed_restore(node, rollback_attacker, init_ms: float,
                            restored=None) -> None:
    """Finish a sealing protocol's reboot (Damysus, OneShot): after
    ``init_ms`` of enclave bring-up, restore ``node.checker`` from its
    sealed ``rstate`` and re-enter the restored view.

    ``rollback_attacker`` (a :class:`~repro.tee.rollback.RollbackAttacker`)
    chooses which sealed version the checker sees; the -R variants detect
    a stale one via the counter and refuse to rejoin — modelled as staying
    offline until the OS produces the fresh state.  ``restored()`` runs
    once the checker accepted the state, before the pacemaker restarts.
    """
    def restore() -> None:
        try:
            if rollback_attacker is not None:
                sealed = rollback_attacker.unseal_for(node.checker, "rstate")
            else:
                sealed = node.checker.unseal_state("rstate")
        except SealingError:
            # The on-disk blob is torn/corrupt (e.g. a power cut mid
            # write): no usable sealed state.
            sealed = None
        try:
            node.checker.tee_restore(sealed)
        except EnclaveAbort:
            node.sim.trace.record(node.sim.now, "rollback_detected", node.node_id)
            if node._obs.enabled:
                node._obs.end_phase("recovery", node.node_id, node.sim.now,
                                    rollback_detected=True)
            return
        finally:
            node.charge_enclave(node.checker)
        if restored is not None:
            restored()
        node.view = node.checker.state.vi
        node.pacemaker.view_started(node.view)
        if node._obs.enabled:
            node._obs.end_phase("recovery", node.node_id, node.sim.now,
                                view=node.view)

    node.after(init_ms, lambda: node.run_work(restore),
               label=f"{node.name}.restore")


__all__ = ["PhaseVote", "PhaseQC", "RStateMixin", "PREP", "CMT",
           "schedule_sealed_restore"]
