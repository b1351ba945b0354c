"""The rollback attacker.

Threat model (paper Sec. 3.1): the adversary controls the OS of a
corrupted node and "can also roll back TEEs' states to some previous
versions (including resetting states) by providing stale stored data
outside TEEs".  :class:`RollbackAttacker` implements exactly that power
over an :class:`~repro.tee.sealing.UntrustedStore`: when a rebooting
enclave unseals its state, the attacker decides which retained version —
or nothing at all (a reset) — the enclave receives.

Forking attacks (running two enclave instances concurrently) are out of
scope per the paper; the enclave API does not permit them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.tee.enclave import Enclave
from repro.tee.sealing import UntrustedStore


@dataclass
class RollbackAttacker:
    """Chooses which sealed version a victim enclave sees on unseal."""

    store: UntrustedStore
    #: name -> version index to serve (None entry = pretend never sealed).
    plan: dict[str, Optional[int]] = field(default_factory=dict)
    attacks_mounted: int = 0

    def serve_stale(self, name: str, version_index: int) -> None:
        """Arrange for ``name`` to unseal as its ``version_index``-th
        (0-based) historical version."""
        self.plan[name] = version_index

    def serve_oldest(self, name: str) -> None:
        """Serve the very first version ever sealed (maximal rollback)."""
        self.plan[name] = 0

    def serve_nothing(self, name: str) -> None:
        """Pretend the item was never sealed (full state reset)."""
        self.plan[name] = -1

    def unseal_for(self, enclave: Enclave, name: str) -> Any:
        """Perform the attacked unseal on behalf of the victim's OS."""
        full_name = f"{enclave.identity}/{name}"
        if full_name in self.plan:
            self.attacks_mounted += 1
            choice = self.plan[full_name]
            if choice == -1:
                return None
            return enclave.unseal_state(name, version_index=choice)
        if name in self.plan:  # convenience: allow short names in plans
            self.attacks_mounted += 1
            choice = self.plan[name]
            if choice == -1:
                return None
            return enclave.unseal_state(name, version_index=choice)
        return enclave.unseal_state(name)


def mount_rollback_attack(node) -> Optional[RollbackAttacker]:
    """An attacker over ``node``'s checker storage, set to serve the oldest
    sealed ``rstate`` ever written (maximal rollback distance) — hand it to
    ``node.reboot``.  ``None`` for a replica without a checker."""
    checker = getattr(node, "checker", None)
    if checker is None:
        return None
    attacker = RollbackAttacker(store=checker.store)
    attacker.serve_oldest(f"{checker.identity}/rstate")
    return attacker


__all__ = ["RollbackAttacker", "mount_rollback_attack"]
