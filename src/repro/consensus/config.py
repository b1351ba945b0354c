"""Protocol and cost configuration.

:class:`NodeCosts` collects the per-operation CPU costs that are *not*
cryptographic (those live in :class:`~repro.crypto.signatures.CryptoProfile`).
The defaults are calibrated so that the simulated Achilles prototype lands
in the paper's reported ballpark (≈50 K TPS / 8.8 ms in LAN at f=30 with
400×256 B batches) — see ``benchmarks/`` for the resulting figures.

:class:`ProtocolConfig` is everything a replica needs to know about the
deployment: committee size, quorums, batching, cost profiles, timeouts, and
the persistent-counter factory used by -R variants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.crypto.signatures import CryptoProfile
from repro.errors import ConfigurationError
from repro.tee.counters import NullCounter, PersistentCounter
from repro.tee.enclave import EnclaveProfile


#: How long a leader with an empty mempool waits before re-checking.
BATCH_WAIT_MS = 2.0


@dataclass(frozen=True)
class NodeCosts:
    """Non-crypto CPU costs, in milliseconds."""

    #: Fixed cost of receiving/dispatching one message (syscall + parse).
    msg_recv_ms: float = 0.003
    #: Fixed cost of handing one message to the NIC.
    msg_send_ms: float = 0.002
    #: Deserialization/validation cost per KB of message body.
    deserialize_per_kb_ms: float = 0.0015
    #: State-machine execution cost per transaction.
    exec_per_tx_ms: float = 0.0005
    #: Mempool/batching bookkeeping per transaction.
    batch_per_tx_ms: float = 0.0002

    def exec_cost(self, n_txs: int) -> float:
        """CPU cost of executing a batch of ``n_txs`` transactions."""
        return self.exec_per_tx_ms * n_txs

    @classmethod
    def free(cls) -> "NodeCosts":
        """Zero-cost profile for logic-only tests."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ProtocolConfig:
    """Deployment-wide configuration shared by all replicas."""

    n: int
    f: int
    batch_size: int = 400
    payload_size: int = 256
    costs: NodeCosts = field(default_factory=NodeCosts)
    crypto: CryptoProfile = field(default_factory=CryptoProfile)
    enclave: EnclaveProfile = field(default_factory=EnclaveProfile)
    #: Factory for the persistent counter the -R variants attach to every
    #: trusted-component invocation; ``None`` means no rollback prevention.
    counter_factory: Optional[Callable[[], PersistentCounter]] = None
    #: Base view timeout (ms); the pacemaker doubles it on repeated failure.
    base_timeout_ms: float = 500.0
    #: Deterministic pacemaker jitter: each armed view timeout is scaled
    #: by ``1 + timeout_jitter * U(0, 1)`` from a per-replica RNG stream,
    #: de-synchronizing view-change storms under message loss.  0 (the
    #: default) arms exact timeouts and draws nothing.
    timeout_jitter: float = 0.0
    #: Cap on pacemaker exponential backoff: consecutive timeouts double
    #: the view timeout at most this many times.  0 disables backoff
    #: entirely (every view gets the base timeout) — the vulnerable
    #: configuration the soak negative controls run.
    pacemaker_max_doublings: int = 10
    #: Decay-on-progress storm damping: on commit progress the pacemaker
    #: subtracts this many backoff doublings instead of resetting to 0.
    #: After a long partition/outage, a full reset re-arms short timeouts
    #: while the committee is still catching up, re-igniting the view
    #: storm; decaying one step per committed block releases the backoff
    #: only as fast as real progress is sustained.  0 (the default)
    #: keeps the historical hard reset — draws no RNG, perturbs no
    #: digests (golden suite pins this).
    backoff_decay: int = 0
    #: Recovery-assist re-arm: a RUNNING replica that receives a
    #: RecoveryRequest caps its armed view timer at the base timeout
    #: (shorten-only, see :meth:`Pacemaker.nudge`).  A rebooted replica's
    #: recovery needs a view led by a RUNNING helper, but views advance
    #: only on timeout — survivors still holding peak-backoff timers
    #: armed during the fault window turn every recovery into a wait for
    #: the longest such timer.  False (the default) keeps the historical
    #: behavior — no RNG draws, no digest changes.
    recovery_assist: bool = False
    #: Retry period for the recovery protocol (ms).
    recovery_retry_ms: float = 50.0
    #: Maintain a live key-value state machine on every replica (enables
    #: the consensus-free read path of paper Sec. 6.1); off by default to
    #: keep large benchmark runs lean.
    maintain_state: bool = False
    #: Factory for the replica's application state machine; ``None`` means
    #: the plain :class:`~repro.chain.execution.KVStateMachine`.  The shard
    #: layer installs a 2PC-aware machine here; every construction site
    #: (boot, reboot replay, checkpoint transfer) goes through it so a
    #: rebuilt replica gets the same application semantics.
    state_machine_factory: Optional[Callable[[], object]] = None
    #: Exchange checkpoint votes every this many committed blocks and
    #: compact the log on each f+1 certificate (None = never compact).
    checkpoint_interval: Optional[int] = None
    #: Committed blocks kept after a compaction.
    checkpoint_retain: int = 64
    #: Produce certified application snapshots at every checkpoint (state
    #: rides the checkpoint certificate; requires ``checkpoint_interval``,
    #: implies ``maintain_state``).  Enables SNAP-REQ/SNAP-REPLY catch-up
    #: and sealed-snapshot restore on reboot.
    snapshots: bool = False
    #: Reboot restore path trusts the latest *sealed* snapshot outright
    #: instead of demanding peer-certified freshness when the retained log
    #: cannot bridge the gap — the undefended baseline the stale-snapshot
    #: negative controls attack.  Never enable outside such controls.
    snapshot_trust_sealed: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0 or self.f < 0:
            raise ConfigurationError(f"invalid committee: n={self.n}, f={self.f}")
        if self.snapshots:
            if not self.checkpoint_interval:
                raise ConfigurationError(
                    "snapshots ride checkpoint certificates: set "
                    "checkpoint_interval when enabling snapshots")
            # Snapshots are of executed state; frozen dataclass, so the
            # implied flag is set in place rather than via replace().
            object.__setattr__(self, "maintain_state", True)

    @property
    def quorum(self) -> int:
        """Votes needed: f+1 for 2f+1 committees, 2f+1 for 3f+1 ones."""
        if self.n == 2 * self.f + 1:
            return self.f + 1
        if self.n == 3 * self.f + 1:
            return 2 * self.f + 1
        # General majority-of-honest fallback.
        return self.n - self.f

    def make_counter(self, rng: Optional["random.Random"] = None) -> PersistentCounter:
        """Instantiate this deployment's persistent counter (or a free one).

        ``rng`` attaches a deterministic jitter stream to the counter.
        Callers building one counter per replica must fork a per-node
        stream (``sim.fork_rng(f"counter/{node_id}")``): without it every
        counter shares the identical default ``Random(0)`` sequence and
        write jitter is perfectly correlated across nodes.
        """
        counter = NullCounter() if self.counter_factory is None else self.counter_factory()
        if rng is not None:
            counter.seed(rng)
        return counter

    def with_(self, **changes) -> "ProtocolConfig":
        """Functional update helper for tests and sweeps."""
        return replace(self, **changes)

    @classmethod
    def tee_committee(cls, f: int, **kwargs) -> "ProtocolConfig":
        """n = 2f+1 committee (Achilles, Damysus, OneShot, BRaft)."""
        return cls(n=2 * f + 1, f=f, **kwargs)


__all__ = ["BATCH_WAIT_MS", "NodeCosts", "ProtocolConfig"]
