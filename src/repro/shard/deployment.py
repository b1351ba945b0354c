"""Sharded multi-group deployment.

A :class:`ShardedDeployment` runs ``S`` independent consensus groups of
one protocol inside a *single* simulator: one event loop, one clock, S
intra-shard network fabrics, S shared mempools, S per-shard
:class:`~repro.shard.machine.ShardStateMachine` instances, and S always-on
invariant monitors.  A :class:`~repro.shard.router.Router` attached to
every fabric is the client tier; a :class:`~repro.shard.txn.TxnManager`
drives cross-shard 2PC through it.

Each shard gets its own RNG namespace (:class:`ShardScope`): component
streams fork as ``"{seed}/shard{s}/{tag}"`` instead of ``"{seed}/{tag}"``,
so co-simulated shards draw *decorrelated* latencies and jitter — without
that, every shard's network would replay byte-identical delay sequences.
Single-group construction paths are untouched (their streams keep the
un-prefixed tags), which is the passivity guarantee the golden digests
pin.
"""

from __future__ import annotations

from typing import Optional

from repro.client.workload import QueueSource
from repro.consensus.cluster import Cluster, build_cluster
from repro.harness.invariants import InvariantMonitor, InvariantViolation
from repro.harness.metrics import LatencyStats, MetricsCollector
from repro.harness.runner import (
    DEFAULT_COUNTER_WRITE_MS,
    protocol_config,
    resolve_network,
    resolve_protocol,
)
from repro.net.adversary import NetworkAdversary
from repro.net.network import Network
from repro.shard.machine import ShardStateMachine
from repro.shard.ranges import ShardMap
from repro.shard.router import Router
from repro.shard.txn import TxnManager
from repro.sim.loop import Simulator


class ShardScope(Simulator):
    """A per-shard RNG namespace over a shared :class:`Simulator`.

    An alias, not a proxy: it shares the real simulator's ``__dict__``, so
    every attribute read and write lands on the one clock and queue at
    plain-attribute cost.  Only :meth:`fork_rng` differs: it prefixes the
    shard tag so each shard's components get independent deterministic
    streams.
    """

    __slots__ = ("_tag",)

    def __init__(self, sim: Simulator, tag: str) -> None:
        self.__dict__ = sim.__dict__
        self._tag = tag

    def fork_rng(self, tag: str):
        return super().fork_rng(f"{self._tag}/{tag}")


class ShardedDeployment:
    """S consensus groups + router tier + 2PC manager in one simulator."""

    def __init__(
        self,
        protocol: str = "achilles",
        shards: int = 2,
        f: int = 1,
        seed: int = 0,
        network: str = "LAN",
        batch_size: int = 100,
        payload_size: int = 64,
        base_timeout_ms: float = 500.0,
        txn_ttl_blocks: Optional[int] = ShardStateMachine.DEFAULT_TTL_BLOCKS,
        warmup_ms: float = 0.0,
        poll_every_ms: float = 25.0,
    ) -> None:
        spec = resolve_protocol(protocol)
        latency = resolve_network(network)
        # -R variants get their persistent counter here as in every other
        # runner, at the paper's Fig. 3 write latency.
        config = protocol_config(
            spec, f, seed,
            counter_write_ms=DEFAULT_COUNTER_WRITE_MS,
            batch_size=batch_size, payload_size=payload_size,
            base_timeout_ms=base_timeout_ms,
            maintain_state=True,
            state_machine_factory=lambda: ShardStateMachine(txn_ttl_blocks),
        )

        self.protocol = protocol
        self.seed = seed
        self.latency = latency
        self.txn_ttl_blocks = txn_ttl_blocks
        self.sim = Simulator(seed=seed)
        self.shard_map = ShardMap.uniform(shards)

        self.clusters: list[Cluster] = []
        self.monitors: list[InvariantMonitor] = []
        self.collectors: list[MetricsCollector] = []
        for s in range(shards):
            scope = ShardScope(self.sim, f"shard{s}")
            fabric = Network(scope, latency=latency,
                             adversary=NetworkAdversary())
            collector = MetricsCollector(warmup_ms=warmup_ms)
            shard_monitor = InvariantMonitor(inner=collector)
            cluster = build_cluster(
                node_factory=spec.node_cls,
                config=config,
                latency=latency,
                source_factory=lambda sim: QueueSource(),
                listener=shard_monitor,
                seed=seed,
                sim=scope,
                network=fabric,
                # Decorrelate keypair material across shards (a shared
                # seed would mint identical keys in every group).
                key_seed=seed + 7919 * (s + 1),
            )
            shard_monitor.attach(cluster, poll_every_ms=poll_every_ms)
            self.clusters.append(cluster)
            self.monitors.append(shard_monitor)
            self.collectors.append(collector)

        self.router = Router(
            self.sim,
            networks=[c.network for c in self.clusters],
            shard_map=self.shard_map,
            shard_n=config.n,
            shard_f=f,
        )
        self.txns = TxnManager(self.sim, self.router, self.shard_map)
        self._finalized = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return self.shard_map.n_shards

    def start(self) -> None:
        """Start every replica of every shard."""
        for cluster in self.clusters:
            cluster.start()

    def run(self, duration_ms: float) -> None:
        """Advance the shared simulation."""
        self.sim.run(until=self.sim.now + duration_ms)

    # ------------------------------------------------------------------
    # Fault helpers (the shard-aware chaos campaigns)
    # ------------------------------------------------------------------
    def crash_shard(self, shard: int) -> None:
        """Crash every replica of one shard (whole-group outage).

        The shard's shared mempool and every replica's pending client
        reply routes are volatile, so the outage loses them too.  That is
        not incidental: a 2PC phase entry taken into a proposal that died
        with the group would otherwise sit in the dedup sets forever,
        every router retransmission dropped as a "duplicate" — the commit
        becomes permanently unorderable and atomicity breaks.
        """
        cluster = self.clusters[shard]
        for node in cluster.nodes:
            node.crash()
            node.forget_client_routes()
        reset = getattr(cluster.source, "reset", None)
        if reset is not None:
            reset()

    def reboot_shard(self, shard: int) -> None:
        """Bring a fully-crashed shard back: operator cold group restart.

        Per-node recovery (the protocol's rollback-resilient path) needs
        f+1 RUNNING helpers, which a total outage left none of — every
        replica would retry its recovery request forever.  The operator
        therefore (1) equalizes the durable committed chains across the
        group (restore from the freshest replica's backup; safe — the
        chains agree and differ only in length) and (2) cold-boots every
        replica from that chain (an ordinary reboot, for protocols whose
        rejoin needs no helpers).
        """
        nodes = self.clusters[shard].nodes
        best = max(nodes, key=lambda nd: nd.store.committed_tip.height)
        chain = best.store.committed_chain()
        for node in nodes:
            tip = node.store.committed_tip.height
            for block in chain:
                if block.height > tip:
                    node.store.add(block)
                    node.store.commit(block)
        for node in nodes:
            node.cold_restart()

    def partition_shard(self, shard: int) -> None:
        """Isolate a whole shard from its clients (the router): the group
        keeps ordering internally — so its TTL countdown keeps running —
        but no request or reply crosses the cut."""
        cluster = self.clusters[shard]
        cluster.network.adversary.partition(
            set(range(len(cluster.nodes))), {self.router.router_id})

    def heal_shard(self, shard: int) -> None:
        """Remove the shard's client-side partition."""
        self.clusters[shard].network.adversary.heal_partition()

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def mark_quiesced(self) -> None:
        """All injected faults are over; per-shard liveness must resume."""
        for shard_monitor in self.monitors:
            shard_monitor.mark_quiesced()

    def finalize(self) -> None:
        """Run every per-shard monitor's end-of-run checks (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        for shard_monitor in self.monitors:
            shard_monitor.finalize()

    def shard_machines(self, shard: int) -> "list[ShardStateMachine]":
        """The state machines of a shard's replicas, best-informed first
        (highest executed height; a freshly rebooted laggard must not
        out-vote a caught-up replica)."""
        machines = [node.state_machine for node in self.clusters[shard].nodes
                    if node.state_machine is not None]
        return sorted(machines, key=lambda m: -m.state_height)

    def atomicity_violations(self) -> "list[InvariantViolation]":
        """The ``cross-shard-atomicity`` invariant (see shard.invariants)."""
        from repro.shard.invariants import check_cross_shard_atomicity

        return check_cross_shard_atomicity(self)

    def all_violations(self) -> "list[InvariantViolation]":
        """Per-shard monitor violations + the cross-shard atomicity check."""
        self.finalize()
        violations: list[InvariantViolation] = []
        for shard_monitor in self.monitors:
            violations.extend(shard_monitor.violations)
        violations.extend(self.atomicity_violations())
        return violations

    def assert_ok(self) -> None:
        """Raise ``AssertionError`` naming every violation and any
        per-shard safety divergence."""
        for cluster in self.clusters:
            cluster.assert_safety()
        violations = self.all_violations()
        if violations:
            lines = "\n".join(f"  {v}" for v in violations)
            raise AssertionError(
                f"{len(violations)} invariant violation(s):\n{lines}")

    # ------------------------------------------------------------------
    # Aggregate metrics
    # ------------------------------------------------------------------
    def aggregate_e2e_latency(self) -> LatencyStats:
        """All shards' end-to-end latencies folded together."""
        total = LatencyStats()
        for collector in self.collectors:
            total.merge_from(collector.e2e_latency)
        return total

    def summary(self) -> dict:
        """Deployment-wide rollup of the per-shard collectors + the
        router/2PC tiers."""
        txs = sum(c.txs_committed for c in self.collectors)
        blocks = sum(c.blocks_committed for c in self.collectors)
        throughput = sum(c.throughput_ktps() for c in self.collectors)
        aggregate = self.aggregate_e2e_latency()
        return {
            "shards": self.n_shards,
            "txs_committed": txs,
            "blocks_committed": blocks,
            "throughput_ktps": throughput,
            "e2e_latency_ms": aggregate.mean,
            "e2e_latency_p50_ms": aggregate.p50,
            "e2e_latency_p99_ms": aggregate.p99,
            "e2e_latency_p999_ms": aggregate.p999,
            "router_completed": self.router.completed,
            "router_failures": self.router.failures,
            "router_retransmissions": self.router.retransmissions,
            "txns_committed": self.txns.committed,
            "txns_aborted": self.txns.aborted,
            "txn_latency_ms": self.txns.txn_latency.mean,
        }


__all__ = ["ShardedDeployment", "ShardScope"]
