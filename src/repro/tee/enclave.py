"""The enclave runtime.

An :class:`Enclave` hosts a trusted component (the paper's CHECKER and
ACCUMULATOR subclass it).  It enforces the three properties the protocols
rely on:

* **Gate**: after :meth:`reboot` every ECALL raises
  :class:`EnclaveOffline` until the component is re-initialized and (for
  stateful components) recovered — a crashed node cannot quietly keep
  certifying messages.
* **Volatility**: reboot wipes volatile state; only sealed blobs survive,
  and those come back through the (adversary-controlled) untrusted store.
* **Cost accounting**: every ECALL accrues a transition cost plus the cost
  of in-enclave crypto (slightly slower than outside, SGX memory
  encryption); callers drain the accrued cost into their CPU model.  A
  profile with all-zero costs models Achilles-C (components outside SGX).

Subclasses mark entry points with the :func:`ecall` decorator, which
applies the online gate and the transition charge uniformly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

from repro.crypto.signatures import CryptoProfile
from repro.errors import EnclaveOffline
from repro.tee.sealing import SealedBlob, SealingKey, UntrustedStore, seal, unseal


@dataclass(frozen=True)
class EnclaveProfile:
    """Cost model for enclave execution.

    ``ecall_ms`` is the EENTER/EEXIT round trip; ``crypto_factor``
    multiplies crypto costs for in-enclave execution; ``init_base_ms`` and
    ``init_per_peer_ms`` model enclave restart + connection re-establishment
    after a reboot (paper Table 2 'Initialization' row: ~11.5 ms at n=3
    rising to ~17.3 ms at n=61).
    """

    ecall_ms: float = 0.03
    crypto_factor: float = 1.8
    seal_ms: float = 0.05
    init_base_ms: float = 11.2
    init_per_peer_ms: float = 0.1

    @classmethod
    def outside_tee(cls) -> "EnclaveProfile":
        """Achilles-C profile: the 'trusted' component runs untrusted —
        no transition cost, native crypto speed, trivial restart."""
        return cls(ecall_ms=0.0, crypto_factor=1.0, seal_ms=0.0,
                   init_base_ms=0.5, init_per_peer_ms=0.02)

    def init_cost(self, n_peers: int) -> float:
        """Cost of restarting the enclave and re-attesting to peers."""
        return self.init_base_ms + self.init_per_peer_ms * n_peers


F = TypeVar("F", bound=Callable[..., Any])


def ecall(method: F) -> F:
    """Decorator marking an enclave entry point: gates on online state and
    charges the transition cost.

    A trusted call is one frame on top of its body: the gate and the
    charge (:meth:`Enclave.charge_part`'s two lines) are written here in
    line, on the path every ECALL of every protocol takes.
    """
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self: "Enclave", *args: Any, **kwargs: Any) -> Any:
        if not self._online:
            raise EnclaveOffline(
                f"enclave {self.identity} is offline (rebooted)")
        self.ecalls += 1
        cost = self.profile.ecall_ms
        self._pending_cost += cost
        if self._cost_parts is not None:
            self._cost_parts.append(("ecall", name, cost))
        return method(self, *args, **kwargs)

    return wrapper  # type: ignore[return-value]


class Enclave:
    """Base class for trusted components."""

    def __init__(
        self,
        identity: str,
        profile: Optional[EnclaveProfile] = None,
        crypto: Optional[CryptoProfile] = None,
        store: Optional[UntrustedStore] = None,
        platform_seed: int = 0,
    ) -> None:
        self.identity = identity
        self.profile = profile if profile is not None else EnclaveProfile()
        self.crypto = crypto if crypto is not None else CryptoProfile()
        self.store = store if store is not None else UntrustedStore()
        self.sealing_key = SealingKey.derive(identity, platform_seed)
        self._online = True
        self._pending_cost = 0.0
        # Categorized cost parts for repro.obs; None until the host node
        # drains with tracing on (zero overhead on untraced runs: one
        # None-check per categorized charge).
        self._cost_parts: Optional[list[tuple[str, str, float]]] = None
        self._seal_version = 0
        self.reboots = 0
        self.ecalls = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reboot(self) -> None:
        """Power-cycle: volatile state is lost; ECALLs gate until restart."""
        self._online = False
        self._pending_cost = 0.0
        if self._cost_parts is not None:
            self._cost_parts = []
        self.reboots += 1
        self.wipe_volatile_state()

    def restart(self, n_peers: int = 0) -> float:
        """Bring the enclave back up; returns the initialization latency.

        State is *not* recovered here — stateful components must run their
        recovery protocol before they can serve protocol ECALLs again.
        """
        self._online = True
        return self.profile.init_cost(n_peers)

    def wipe_volatile_state(self) -> None:
        """Subclass hook: clear all volatile fields on reboot."""

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def charge(self, cost_ms: float) -> None:
        """Accrue ``cost_ms`` against the current invocation."""
        self._pending_cost += cost_ms

    def charge_part(self, kind: str, name: str, cost_ms: float) -> None:
        """Accrue ``cost_ms`` tagged with a critical-path bucket kind."""
        self._pending_cost += cost_ms
        if self._cost_parts is not None:
            self._cost_parts.append((kind, name, cost_ms))

    def charge_sign(self, count: int = 1) -> None:
        """Accrue the cost of ``count`` in-enclave signatures."""
        cost = self.crypto.sign_ms * self.profile.crypto_factor * count
        self._pending_cost += cost
        if self._cost_parts is not None:
            self._cost_parts.append(("crypto", "sign", cost))

    def charge_verify(self, count: int = 1) -> None:
        """Accrue the cost of verifying ``count`` signatures in-enclave."""
        cost = self.crypto.verify_many(count) * self.profile.crypto_factor
        self._pending_cost += cost
        if self._cost_parts is not None:
            self._cost_parts.append(("crypto", "verify", cost))

    def charge_hash(self, size_bytes: int) -> None:
        """Accrue the cost of hashing ``size_bytes`` in-enclave."""
        self.charge_part("crypto", "hash",
                         self.crypto.hash_cost(size_bytes) * self.profile.crypto_factor)

    def drain_cost(self) -> float:
        """Return and reset the cost accrued since the last drain.

        The caller (the untrusted host code of the node) charges this to
        its CPU model — enclave work happens on the node's own core.
        """
        cost, self._pending_cost = self._pending_cost, 0.0
        return cost

    def drain_cost_parts(self) -> tuple[float, list[tuple[str, str, float]]]:
        """Like :meth:`drain_cost` but also returns categorized parts.

        Arms part collection as a side effect: the first traced drain of
        an enclave returns an empty part list (its bootstrap ECALLs were
        charged before anyone asked for categories); every drain after
        that is fully categorized.
        """
        cost, self._pending_cost = self._pending_cost, 0.0
        parts = self._cost_parts if self._cost_parts is not None else []
        self._cost_parts = []
        return cost, parts

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------
    def seal_state(self, name: str, payload: Any) -> SealedBlob:
        """Seal ``payload`` to the untrusted store under ``name``."""
        self.charge_part("storage", "seal", self.profile.seal_ms)
        self._seal_version += 1
        blob = seal(self.sealing_key, payload, self._seal_version)
        self.store.store(f"{self.identity}/{name}", blob)
        return blob

    def unseal_state(self, name: str, version_index: Optional[int] = None) -> Any:
        """Fetch-and-unseal ``name``; returns ``None`` when never sealed.

        ``version_index`` models the adversary serving a stale version —
        honest operation passes ``None`` (latest).  Authentication failures
        raise :class:`repro.errors.SealingError`.
        """
        self.charge_part("storage", "unseal", self.profile.seal_ms)
        blob = self.store.fetch(f"{self.identity}/{name}", version_index)
        if blob is None:
            return None
        return unseal(self.sealing_key, blob)


__all__ = ["Enclave", "EnclaveProfile", "ecall"]
