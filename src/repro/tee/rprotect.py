"""Rollback-prevention wiring (the paper's Sec. 2.1 recipe).

``RStateMixin`` adds the store-then-increment dance to a trusted
component: every state-updating ECALL seals the new state to untrusted
storage and (when a persistent counter is attached) increments the
counter, charging its write latency to the invocation.  The -R protocol
variants (Damysus-R, OneShot-R, MinBFT-R) and FlexiBFT's proposer use it;
Achilles never does — that is the paper's point.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import EnclaveAbort
from repro.tee.counters import PersistentCounter
from repro.tee.enclave import ecall


class RStateMixin:
    """Rollback-prevention wiring for a trusted component.

    Mix into an :class:`~repro.tee.enclave.Enclave` subclass, say what is
    sealed (:meth:`_sealed_payload`) and how it is loaded back
    (:meth:`_load_sealed`), set ``recovering`` when a reboot wipes the
    state, and call :meth:`protect_state_update` from every ECALL that
    mutates consensus state.  With a real (non-null) counter attached
    this performs the store-then-increment dance and charges its latency;
    with no counter it is free — which is precisely the unprotected
    (rollback-vulnerable) baseline configuration.
    """

    counter: Optional[PersistentCounter] = None
    counter_writes: int = 0
    _state_version: int = 0
    #: Rebooted and not restored yet: the one state :meth:`tee_restore`
    #: accepts.
    recovering: bool = False

    def attach_counter(self, counter: Optional[PersistentCounter]) -> None:
        """Install the persistent counter (None = no rollback prevention)."""
        self.counter = counter
        self.counter_writes = 0
        self._state_version = 0

    def _sealed_payload(self) -> Any:
        """The component's state, as sealed after every update."""
        raise NotImplementedError

    def _load_sealed(self, payload: Any) -> None:
        """Adopt a :meth:`_sealed_payload` that passed the freshness check."""
        raise NotImplementedError

    def protect_state_update(self) -> None:
        """Seal the new state; with a counter, bind it and pay the write.

        Without a counter the state is still sealed (so a reboot can
        restore it) but *nothing authenticates freshness* — the rollback
        vulnerability of the unprotected baselines.
        """
        self._state_version += 1
        # Store operation: persist the sealed state with its version.
        self.seal_state("rstate", (self._state_version, self._sealed_payload()))  # type: ignore[attr-defined]
        if self.counter is None:
            return
        # Increase operation: the expensive persistent write.
        _, latency = self.counter.increment()
        # Tagged "counter" so the critical-path analyzer can surface the
        # write as its own bucket — the cost Achilles eliminates.  The
        # charge is ``charge_part``'s lines, in line on every update.
        self._pending_cost += latency  # type: ignore[attr-defined]
        if self._cost_parts is not None:  # type: ignore[attr-defined]
            self._cost_parts.append(  # type: ignore[attr-defined]
                ("counter", self.counter.name, latency))
        self.counter_writes += 1

    @ecall
    def tee_restore(self, sealed: Optional[tuple]) -> bool:
        """Restore the state a reboot wiped from what the host unsealed.

        ``sealed`` is a ``(version, payload)`` pair or ``None``; *nothing
        sealed is version 0* and faces :meth:`check_sealed_freshness`
        like any other version — a host that withholds the blob after a
        protected update (the paper's "resetting states", Sec. 3.1) is
        rolling the component back to genesis.
        """
        if not self.recovering:
            raise EnclaveAbort(f"{self.identity} does not need restoration")  # type: ignore[attr-defined]
        version, payload = sealed if sealed is not None else (0, None)
        self.check_sealed_freshness(version)
        if sealed is not None:
            self._load_sealed(payload)
        self._state_version = version
        self.recovering = False
        return True

    def check_sealed_freshness(self, version: int) -> None:
        """Post-reboot freshness check of a sealed state version.

        * ``version == counter`` — fresh, accept.
        * ``version == counter + 1`` — the legitimate store-then-increment
          crash window: power died after the sealed store became durable
          but before the counter increment landed.  The sealed state is
          the *newest* ever produced, so accept it and resync the counter
          forward with one (paid) increment.  Refusing here would turn
          every unlucky power cut into a permanently bricked replica.
        * anything else — a rollback (or a forged future version): abort.

        No-op without a counter (the unprotected baselines).
        """
        if self.counter is None:
            return
        _, latency = self.counter.read()
        self.charge_part("counter", f"{self.counter.name}.read", latency)  # type: ignore[attr-defined]
        if version == self.counter.value:
            return
        if version == self.counter.value + 1:
            _, latency = self.counter.increment()
            self.charge_part("counter", f"{self.counter.name}.resync",  # type: ignore[attr-defined]
                             latency)
            self.counter_writes += 1
            return
        raise EnclaveAbort(
            f"rollback detected: sealed version {version} != "
            f"counter {self.counter.value}"
        )


__all__ = ["RStateMixin"]
