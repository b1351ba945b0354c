"""Client-side routing tier.

The :class:`Router` is the deployment's front door: it maps every request
to the shard owning its key, load-balances the first delivery across that
shard's replicas, falls back to a full-shard broadcast with exponential
backoff when no reply arrives (leader crash, partition), deduplicates the
extra replies a broadcast provokes, and tracks per-shard queue depth and
latency.  It is an ordinary network endpoint attached (under one id) to
*every* shard's fabric, so replies ride the same simulated links as any
client traffic.

Two completion modes:

* plain writes complete on the **first** reply (the paper's reply
  responsiveness: one certified reply suffices), and
* 2PC phase entries demand ``f+1`` *matching outcome annotations from
  distinct replicas* — a vote certificate that at least one honest
  replica reports the shard's ordered outcome.

Bounded retries model a real client: after ``max_attempts`` broadcasts
the operation fails client-visibly (no hang).  Phase-2 commit entries opt
into ``persistent=True`` — once a commit decision is certified, the
router keeps pushing it until the shard orders it (standard 2PC: the
decision must reach every participant), with the participant-side TTL
abort as the backstop for everything else.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.chain.execution import validate_write
from repro.chain.transaction import Transaction
from repro.consensus.messages import ClientReply, ClientRequest
from repro.harness.metrics import LatencyStats
from repro.net.message import Envelope

#: The router's network id on every shard fabric — far above replica ids
#: and the simulated-client band (10k+).
ROUTER_ID_BASE = 50_000

#: Each broadcast retry waits this factor longer than the last, up to
#: :data:`MAX_RETRY_MS`.
RETRY_BACKOFF = 1.6
MAX_RETRY_MS = 400.0


class _PendingOp:
    """One in-flight routed operation."""

    __slots__ = ("tx", "shard", "quorum", "persistent", "on_done", "outcomes",
                 "attempts", "max_attempts", "submitted_at", "done")

    def __init__(self, tx: Transaction, shard: int, quorum: int,
                 persistent: bool, on_done, now: float,
                 max_attempts: Optional[int] = None) -> None:
        self.tx = tx
        self.shard = shard
        self.quorum = quorum
        self.persistent = persistent
        self.on_done = on_done
        #: outcome string -> replica ids that reported it
        self.outcomes: dict[str, set[int]] = {}
        self.attempts = 0
        #: per-op retry budget override (None -> the router's default)
        self.max_attempts = max_attempts
        self.submitted_at = now
        self.done = False


class Router:
    """Key-range request router over a :class:`ShardedDeployment`."""

    def __init__(self, sim, networks, shard_map, shard_n: int, shard_f: int,
                 retry_ms: float = 60.0, max_attempts: int = 10) -> None:
        self.sim = sim
        self.networks = list(networks)
        self.shard_map = shard_map
        self.shard_n = shard_n
        self.shard_f = shard_f
        self.retry_ms = retry_ms
        self.max_attempts = max_attempts
        self.router_id = ROUTER_ID_BASE
        for network in self.networks:
            network.attach(self.router_id, self)
        self._seq = 0
        self._pending: dict[tuple[int, int], _PendingOp] = {}
        self._next_replica = [0] * len(self.networks)
        # -- observability ------------------------------------------------
        #: live outstanding operations per shard
        self.queue_depth = [0] * len(self.networks)
        self.peak_queue_depth = [0] * len(self.networks)
        self.latency_by_shard = [LatencyStats() for _ in self.networks]
        self.retransmissions = 0
        self.duplicate_replies = 0
        self.failures = 0
        self.completed = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_write(self, key: str, value: str,
                     on_done: Optional[Callable[[Optional[str]], None]] = None,
                     payload_size: int = 0) -> tuple[int, int]:
        """Route one ``SET`` to the shard owning ``key``.

        Typed admission check up front: an empty key or oversized value
        raises :class:`~repro.errors.StateMachineError` here, at the door,
        with the same validator every replica would apply it under.
        """
        validate_write(key, value)
        shard = self.shard_map.shard_of(key)
        return self.submit_payload(shard, f"SET {key} {value}", quorum=1,
                                   on_done=on_done, payload_size=payload_size)

    def submit_payload(self, shard: int, payload: str, quorum: int = 1,
                       on_done: Optional[Callable[[Optional[str]], None]] = None,
                       persistent: bool = False, payload_size: int = 0,
                       max_attempts: Optional[int] = None) -> tuple[int, int]:
        """Submit a raw payload to ``shard``; returns the operation key.

        ``quorum`` is how many distinct replicas must report the *same*
        outcome annotation before ``on_done(outcome)`` fires; exhausting
        the retry budget (non-persistent ops; ``max_attempts`` overrides
        the router default per op) fires ``on_done(None)``.
        """
        self._seq += 1
        tx = Transaction(client_id=self.router_id, tx_id=self._seq,
                         payload=payload, payload_size=payload_size,
                         created_at=self.sim.now)
        op = _PendingOp(tx, shard, quorum, persistent, on_done, self.sim.now,
                        max_attempts=max_attempts)
        self._pending[tx.key] = op
        self.queue_depth[shard] += 1
        self.peak_queue_depth[shard] = max(self.peak_queue_depth[shard],
                                           self.queue_depth[shard])
        self._dispatch(op, first=True)
        return tx.key

    def _dispatch(self, op: _PendingOp, first: bool) -> None:
        network = self.networks[op.shard]
        request = ClientRequest(tx=op.tx, reply_to=self.router_id)
        if first and op.quorum <= 1:
            # Load-balance the initial delivery round-robin across the
            # shard's replicas; any replica forwards into the shared
            # mempool, so this spreads client-facing work.
            replica = self._next_replica[op.shard]
            self._next_replica[op.shard] = (replica + 1) % self.shard_n
            network.send(self.router_id, replica, request)
        elif first:
            # Quorum ops need replies from f+1 distinct replicas, so a
            # single-replica first hop would always stall into the retry
            # path: broadcast from the start.
            for replica in range(self.shard_n):
                network.send(self.router_id, replica, request)
        else:
            # Timeout fallback: the chosen replica may be crashed or
            # partitioned — broadcast to the whole shard (PBFT-style).
            self.retransmissions += 1
            for replica in range(self.shard_n):
                network.send(self.router_id, replica, request)
        op.attempts += 1
        delay = min(self.retry_ms * (RETRY_BACKOFF ** (op.attempts - 1)),
                    MAX_RETRY_MS)
        self.sim.schedule(delay, lambda: self._retry(op), label="router-retry")

    def _retry(self, op: _PendingOp) -> None:
        if op.done:
            return
        budget = op.max_attempts if op.max_attempts is not None \
            else self.max_attempts
        if not op.persistent and op.attempts >= budget:
            self._finish(op, None)
            self.failures += 1
            return
        self._dispatch(op, first=False)

    def _finish(self, op: _PendingOp, outcome: Optional[str]) -> None:
        op.done = True
        self._pending.pop(op.tx.key, None)
        self.queue_depth[op.shard] -= 1
        if outcome is not None:
            self.completed += 1
            self.latency_by_shard[op.shard].add(self.sim.now - op.submitted_at)
        if op.on_done is not None:
            op.on_done(outcome)

    # ------------------------------------------------------------------
    # Network endpoint
    # ------------------------------------------------------------------
    def deliver(self, envelope: Envelope) -> None:
        """Collect replies; complete ops on first reply / outcome quorum."""
        payload = envelope.payload
        if not isinstance(payload, ClientReply):
            return
        op = self._pending.get(payload.tx_key)
        if op is None or op.done:
            # Late or duplicate (broadcast fallback provokes one reply per
            # replica; failover re-replies) — observed, never double-counted.
            self.duplicate_replies += 1
            return
        reporters = op.outcomes.setdefault(payload.outcome, set())
        if payload.replica in reporters:
            self.duplicate_replies += 1
            return
        reporters.add(payload.replica)
        if op.quorum <= 1:
            self._finish(op, payload.outcome)
        elif payload.outcome and len(reporters) >= op.quorum:
            # f+1 distinct replicas reported this exact outcome: at least
            # one honest replica vouches for the shard's ordered result.
            self._finish(op, payload.outcome)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_for(self, shard: int) -> int:
        """Live outstanding operations routed to ``shard``."""
        return self.queue_depth[shard]

    def aggregate_latency(self) -> LatencyStats:
        """All shards' routed-op latencies folded into one aggregate."""
        total = LatencyStats()
        for stats in self.latency_by_shard:
            total.merge_from(stats)
        return total


__all__ = ["Router", "ROUTER_ID_BASE"]
