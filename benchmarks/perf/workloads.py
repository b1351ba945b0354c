"""The eight benchmark workloads.

Each workload is a pair of functions over public ``repro`` entry points:
``prepare(seed, scale)`` builds what can be built before the clock starts
(set-up) and ``run(state)`` does the simulated work and returns an
:class:`Outcome`.  ``scale`` shrinks simulated durations (``--smoke`` runs
at a tenth); the sizes at ``scale=1`` are the ones the ledger records.

Everything here is derived from ``seed``; the program under test sees
only the generated inputs.  Sizes are cut from ISSUE 11's so that one
rep costs ~1.3 host-seconds (the driver's budget is ~19 s per run for
set-up, a counted pass and the timed reps together): see README.md.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Callable, Optional

# Importing the packages registers every protocol (public side effect).
import repro.baselines  # noqa: F401
import repro.core.registry  # noqa: F401
from repro.client.workload import (OpenLoopGenerator, QueueSource,
                                   SaturatedSource, ShardedOpenLoopGenerator)
from repro.consensus.cluster import build_cluster
from repro.consensus.config import ProtocolConfig
from repro.faults.powercut import PowercutSpec, run_powercut
from repro.harness.metrics import LatencyStats, MetricsCollector
from repro.harness.runner import PROTOCOLS, run_experiment
from repro.harness.soak import SoakSpec, run_soak
from repro.net.latency import LAN_PROFILE, WAN_PROFILE
from repro.shard.deployment import ShardedDeployment
from repro.shard.sweep import run_shard_point
from repro.tee.counters import ConfigurableCounter
from repro.tee.enclave import EnclaveProfile


#: Scale of ``--smoke`` runs, of every run's untimed warm-up, and of the
#: parity checks.
SMOKE_SCALE = 0.1


@dataclass
class Outcome:
    """What one rep produced, in simulated time.

    ``sim`` holds the ``sim_*`` and ratio metrics, ``counts`` the
    boundary counts of single layers.  Both repeat exactly for a fixed
    ``(workload, seed, scale)``; ``digest`` fingerprints them plus the
    final chain tips so reps can be checked against each other.
    """

    sim: dict
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    digest: str = ""

    def seal(self, *extra) -> "Outcome":
        """Compute the digest once every field is final."""
        blob = repr((sorted(self.sim.items()), sorted(self.counts.items()),
                     self.attempted, self.failed, self.violations, extra))
        self.digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return self


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable
    run: Callable
    #: ``run_experiment`` keyword arguments of the same configuration, for
    #: the rows whose simulated critical path ``repro.obs`` can walk.
    obs_config: Optional[Callable] = None
    #: ``parity(seed) -> (mine, theirs)``: the same numbers from this
    #: file's own assembly and from the public entry point it mirrors.
    parity: Optional[Callable] = None


def tail(stats: LatencyStats) -> "tuple[float, str]":
    """The tail percentile the sample supports, and its name: p99 from
    1000 samples up, else the highest percentile with ten samples beyond
    it."""
    n = stats.count
    if n >= 1000:
        return stats.p99, "p99"
    p = max(50.0, 100.0 * (n - 10) / n) if n else 50.0
    return stats.percentile(p), f"p{p:.1f}"


def misses(stats: LatencyStats, limit_ms: float) -> int:
    """Samples over the latency limit."""
    return sum(1 for v in stats.samples if v > limit_ms)


def _view_changes(nodes) -> int:
    """Pacemaker timeouts fired, over the nodes that have a pacemaker."""
    return sum(getattr(getattr(n, "pacemaker", None), "timeouts_fired", 0)
               for n in nodes)


class CommitClock:
    """A commit listener that notes when each new height first commits
    anywhere and how many transactions it carried (warm-up included),
    then forwards to the real collector."""

    def __init__(self, inner: MetricsCollector) -> None:
        self.inner = inner
        self.times: list = []
        self.txs = 0
        self._height = 0
        self.on_propose = inner.on_propose
        self.on_reply = inner.on_reply
        self.on_replies = inner.on_replies

    def on_commit(self, node, block, now) -> None:
        if block.height > self._height:
            self._height = block.height
            self.times.append(now)
            self.txs += len(block.txs)
        self.inner.on_commit(node, block, now)


# ----------------------------------------------------------------------
# run_experiment-shaped rows
# ----------------------------------------------------------------------
#: Slices the measured window is run in, to sample mempool depth.
_SLICES = 8


class Experiment:
    """One cluster wired exactly as ``run_experiment`` wires it, kept open
    so percentiles, mempool depth and fault hooks are reachable.  Parity
    with ``run_experiment`` is asserted by the traced pass."""

    def __init__(self, protocol: str, f: int, network: str, seed: int,
                 duration_ms: float, warmup_ms: float,
                 offered_tps: Optional[float] = None,
                 counter_write_ms: float = 20.0,
                 batch_size: int = 400, payload_size: int = 256,
                 config_overrides: Optional[dict] = None) -> None:
        spec = PROTOCOLS[protocol]
        latency = {"LAN": LAN_PROFILE, "WAN": WAN_PROFILE}[network]
        counter_factory = None
        if spec.uses_counter and counter_write_ms > 0:
            counter_factory = lambda: ConfigurableCounter(counter_write_ms)  # noqa: E731
        config = ProtocolConfig(
            n=spec.committee(f), f=f, batch_size=batch_size,
            payload_size=payload_size, counter_factory=counter_factory,
            enclave=(EnclaveProfile.outside_tee() if spec.outside_tee
                     else EnclaveProfile()),
            seed=seed, **(config_overrides or {}))
        hop = latency.one_way_ms
        self.duration_ms = duration_ms
        self.warmup_ms = warmup_ms
        self.batch_size = batch_size
        self.network = network
        self.collector = MetricsCollector(warmup_ms=warmup_ms,
                                          reply_one_way_ms=hop)
        self.clock = CommitClock(self.collector)
        self.generator = None

        def source_factory(sim):
            if offered_tps is None:
                return SaturatedSource(sim, payload_size=payload_size,
                                       client_one_way_ms=hop)
            queue = QueueSource()
            self.generator = OpenLoopGenerator(
                sim, queue, rate_tps=offered_tps, payload_size=payload_size,
                client_one_way_ms=hop)
            return queue

        self.cluster = build_cluster(
            node_factory=spec.node_cls, config=config, latency=latency,
            source_factory=source_factory,
            listener=self.clock, seed=seed)
        self.cluster.sim.trace.enabled = False
        self.faults_planned = 0
        self.faults: list = []

    # -- fault hook ----------------------------------------------------
    def crash_leader_at(self, at_ms: float, downtime_ms: float) -> None:
        """At ``at_ms`` crash whichever replica leads the highest view any
        live replica is in; reboot it ``downtime_ms`` later."""
        cluster = self.cluster
        self.faults_planned += 1

        def strike() -> None:
            live = [n for n in cluster.nodes if n.alive]
            view = max(n.view for n in live)
            victim = cluster.nodes[live[0].leader_of(view)]
            if not victim.alive:
                return
            self.faults.append(cluster.sim.now)
            victim.crash()
            cluster.sim.schedule_at(cluster.sim.now + downtime_ms,
                                    victim.reboot, label="bench.reboot")

        cluster.sim.schedule_at(at_ms, strike, label="bench.crash-leader")

    # -- run -----------------------------------------------------------
    def run(self, limit_ms: Optional[float] = None) -> Outcome:
        cluster, collector, source = \
            self.cluster, self.collector, self.cluster.source
        open_loop = self.generator is not None
        if open_loop:
            self.generator.start()
        cluster.start()
        cluster.run(self.warmup_ms)
        arrived_at_warmup = source.submitted if open_loop else 0
        depths = []
        step = (self.duration_ms - self.warmup_ms) / _SLICES
        for _ in range(_SLICES):
            cluster.run(step)
            depths.append(source.pending() if open_loop else 0)

        e2e, commit = collector.e2e_latency, collector.commit_latency
        e2e_tail, e2e_tail_name = tail(e2e)
        commit_tail, commit_tail_name = tail(commit)
        tput = collector.throughput_ktps(measured_until=self.duration_ms)
        stats = cluster.network.stats
        txs, blocks = collector.txs_committed, collector.blocks_committed
        sim = {
            "sim_tput_ktps": tput,
            "sim_e2e_p50_ms": e2e.p50,
            "sim_e2e_p99_ms": e2e_tail,
            "sim_commit_p50_ms": commit.p50,
            "sim_commit_p99_ms": commit_tail,
        }
        notes = {
            "e2e_samples": e2e.count, "e2e_tail": e2e_tail_name,
            "commit_samples": commit.count, "commit_tail": commit_tail_name,
            "commit_mean_ms": commit.mean, "e2e_mean_ms": e2e.mean,
            "delay": ("LAN 0.1±0.02 ms RTT" if self.network == "LAN"
                      else "WAN 40±0.2 ms RTT"),
        }
        events = cluster.sim.events_processed
        messages, bytes_sent = stats.messages_sent, stats.bytes_sent
        view_changes = _view_changes(cluster.nodes)
        episodes = [e for n in cluster.nodes
                    for e in getattr(n, "recovery_episodes", ())]

        # Open loop: stop arrivals and let what was sent drain, so that a
        # request counts as failed only if it never committed.
        attempted, failed = txs, 0
        if open_loop:
            offered = source.submitted - arrived_at_warmup
            notes["offered_in_window"] = offered
            notes["achieved_over_offered"] = txs / offered if offered else 0.0
            notes["depth_mid"] = depths[_SLICES // 2 - 1]
            notes["depth_end"] = depths[-1]
            notes["generator_lateness_ms"] = 0.0  # simulated clock: never late
            self.generator.stop()
            cluster.run(20 * max(commit.mean, 1.0))
            attempted = source.submitted + sum(source.drops.values())
            failed = attempted - self.clock.txs
        violations = []
        try:
            cluster.assert_safety()
        except AssertionError as exc:
            violations.append(str(exc))

        if limit_ms is not None:
            missed = misses(e2e, limit_ms) + failed
            sim["slo_miss_ratio"] = missed / max(1, e2e.count + failed)
        sim["failed_ops_ratio"] = failed / max(1, attempted)
        if self.faults:
            times = self.clock.times
            outages = []
            for at in self.faults:
                after = next((t for t in times if t > at), None)
                outages.append(float("inf") if after is None else after - at)
            sim["sim_outage_ms"] = max(outages)
            notes["outages_ms"] = outages
        if len(self.faults) < self.faults_planned or \
                float("inf") in notes.get("outages_ms", ()):
            violations.append(
                f"engagement: {self.faults_planned} leader crashes planned, "
                f"{len(self.faults)} happened, outages "
                f"{notes.get('outages_ms')}")
        if episodes:
            sim["sim_recovery_ms"] = max(e.total_ms for e in episodes)

        counts = {
            "sim.events": events,
            "sim.events_per_tx": events / max(1, txs),
            "net.msgs_per_block": messages / max(1, blocks),
            "net.bytes_per_tx": bytes_sent / max(1, txs),
            "net.dropped": stats.messages_dropped,
            "net.transport.retransmissions":
                cluster.network.transport_totals().get("retransmissions", 0),
            "chain.txs_per_block": txs / max(1, blocks),
            "consensus.blocks_committed": blocks,
            "consensus.view_changes": view_changes,
            "core.recoveries": len(episodes),
            "core.recovery_init_ms":
                max((e.init_ms for e in episodes), default=0.0),
            "core.recovery_protocol_ms":
                max((e.protocol_ms for e in episodes), default=0.0),
            "client.offered": attempted,
            "client.acked": attempted - failed,
            "client.mempool_peak_depth": max(depths),
        }
        tips = [(n.store.committed_tip.height, n.store.committed_tip.hash)
                for n in cluster.nodes]
        return Outcome(sim, counts, attempted, failed, violations,
                       notes).seal(tips)


def _experiment_row(name, why, protocol, f, network, duration_ms, warmup_ms,
                    counter_write_ms=20.0) -> Workload:
    """A saturated closed-loop row at the paper's batch 400 × 256 B."""
    def sized(scale):
        return max(warmup_ms * 2, duration_ms * scale)

    def prepare(seed, scale):
        return Experiment(protocol, f, network, seed, sized(scale),
                          warmup_ms, counter_write_ms=counter_write_ms)

    def obs_config(seed, scale):
        return dict(protocol=protocol, f=f, network=network,
                    counter_write_ms=counter_write_ms,
                    duration_ms=sized(scale), warmup_ms=warmup_ms, seed=seed)

    return Workload(name, why, prepare, Experiment.run,
                    obs_config=obs_config)


# ----------------------------------------------------------------------
# wan_open_f10: open-loop rate ladder
# ----------------------------------------------------------------------
WAN_RATES_KTPS = (2.0, 4.0, 5.8, 6.5)
WAN_REPORT_KTPS = 4.0
WAN_LIMIT_MS = 200.0
_WAN_DURATION_MS, _WAN_WARMUP_MS = 5000.0, 1200.0


def _wan_sized(scale):
    return max(2 * _WAN_WARMUP_MS, _WAN_DURATION_MS * scale)


def _wan_prepare(seed, scale):
    return [Experiment("achilles", 10, "WAN", seed, _wan_sized(scale),
                       _WAN_WARMUP_MS, offered_tps=rate * 1000.0)
            for rate in WAN_RATES_KTPS]


def _wan_run(rungs) -> Outcome:
    """Run every rung; report latency at the 4.0 rung and the highest
    rate that meets the limit without a growing backlog."""
    outcomes = [rung.run(WAN_LIMIT_MS) for rung in rungs]
    ladder, max_rate = [], 0.0
    for rate, rung, out in zip(WAN_RATES_KTPS, rungs, outcomes):
        meets = (out.sim["sim_e2e_p99_ms"] <= WAN_LIMIT_MS
                 and out.notes["achieved_over_offered"] >= 0.98
                 # one batch of slack: a steady queue wanders by about that
                 and out.notes["depth_end"]
                 <= out.notes["depth_mid"] + rung.batch_size)
        if meets:
            max_rate = rate
        ladder.append({
            "offered_ktps": rate, "achieved_ktps": out.sim["sim_tput_ktps"],
            "e2e_p50_ms": out.sim["sim_e2e_p50_ms"],
            "e2e_p99_ms": out.sim["sim_e2e_p99_ms"],
            "achieved_over_offered": out.notes["achieved_over_offered"],
            "depth_mid": out.notes["depth_mid"],
            "depth_end": out.notes["depth_end"], "meets_limit": meets})
    report = outcomes[WAN_RATES_KTPS.index(WAN_REPORT_KTPS)]
    sim = dict(report.sim, sim_max_rate_ktps=max_rate)
    # Host-side counts cover the whole ladder; ratios are the 4.0 rung's.
    counts = dict(report.counts)
    for key in ("sim.events", "consensus.blocks_committed",
                "client.offered", "client.acked"):
        counts[key] = sum(o.counts[key] for o in outcomes)
    return Outcome(
        sim, counts, sum(o.attempted for o in outcomes),
        sum(o.failed for o in outcomes),
        [v for o in outcomes for v in o.violations],
        dict(report.notes, ladder=ladder),
    ).seal([o.digest for o in outcomes])


def _wan_obs_config(seed, scale):
    return dict(protocol="achilles", f=10, network="WAN",
                offered_load_tps=WAN_REPORT_KTPS * 1000.0,
                duration_ms=_wan_sized(scale), warmup_ms=_WAN_WARMUP_MS,
                seed=seed)


# ----------------------------------------------------------------------
# leader_crash_f10: open-loop traffic sent on schedule through 4 crashes
# ----------------------------------------------------------------------
CRASH_LIMIT_MS = 20.0
_CRASH_TIMES_MS = (500.0, 1300.0, 2100.0, 2900.0)
_CRASH_DURATION_MS, _CRASH_WARMUP_MS = 3700.0, 300.0
_CRASH_RATE_TPS, _CRASH_DOWNTIME_MS = 12000.0, 100.0
#: Pacemaker base timeout.  An outage lasts the timeout plus ~118.5 ms of
#: view change (618.5 ms at the default 500); 200 lets four outages, with
#: enough service between them to keep the median request out of one,
#: fit a rep of under two host-seconds.
_CRASH_TIMEOUT_MS = 200.0


def _crash_prepare(seed, scale, strikes=True):
    # Faults keep their spacing (a view change takes what it takes); a
    # scaled-down run simply fits fewer of them (all four at scale 1).
    duration = max(1000.0, _CRASH_DURATION_MS * scale)
    exp = Experiment("achilles", 10, "LAN", seed, duration, _CRASH_WARMUP_MS,
                     offered_tps=_CRASH_RATE_TPS,
                     config_overrides=dict(base_timeout_ms=_CRASH_TIMEOUT_MS))
    if strikes:
        for at in _CRASH_TIMES_MS:
            if at + 400.0 < duration:
                exp.crash_leader_at(at, _CRASH_DOWNTIME_MS)
    return exp


def _crash_run(exp) -> Outcome:
    return exp.run(CRASH_LIMIT_MS)


def _crash_parity(seed: int) -> "tuple[tuple, tuple]":
    """(throughput, mean commit latency) of the leader-crash assembly with
    no crash scheduled, and of ``run_experiment`` on the same (smoke-sized)
    configuration."""
    exp = _crash_prepare(seed, SMOKE_SCALE, strikes=False)
    mine = exp.run()
    theirs = run_experiment(
        "achilles", 10, "LAN", duration_ms=exp.duration_ms,
        warmup_ms=_CRASH_WARMUP_MS, seed=seed,
        offered_load_tps=_CRASH_RATE_TPS,
        config_overrides=dict(base_timeout_ms=_CRASH_TIMEOUT_MS))
    return ((mine.sim["sim_tput_ktps"], mine.notes["commit_mean_ms"]),
            (theirs.throughput_ktps, theirs.commit_latency_ms))


# ----------------------------------------------------------------------
# shard4_2pc
# ----------------------------------------------------------------------
SHARD_LIMIT_MS = 10.0
_SHARD = dict(shards=4, f=1, rate_tps=2000.0, cross_fraction=0.1,
              duration_ms=450.0, quiesce_ms=150.0, warmup_ms=100.0,
              batch_size=100, payload_size=64)


def _shard_sized(scale):
    cfg = dict(_SHARD)
    cfg["duration_ms"] = max(300.0, cfg["duration_ms"] * scale)
    return cfg


def _shard_prepare(seed, scale):
    """The deployment ``run_shard_point`` builds, kept open so the shard
    collectors and fabrics are reachable.  Parity with
    ``run_shard_point`` is asserted by the traced pass."""
    cfg = _shard_sized(scale)
    deployment = ShardedDeployment(
        protocol="achilles", shards=cfg["shards"], f=cfg["f"], seed=seed,
        network="LAN", batch_size=cfg["batch_size"],
        payload_size=cfg["payload_size"], warmup_ms=cfg["warmup_ms"])
    generator = ShardedOpenLoopGenerator(
        deployment.sim, deployment.router, deployment.txns,
        rate_tps=cfg["rate_tps"], cross_fraction=cfg["cross_fraction"],
        payload_size=cfg["payload_size"])
    deployment.sim.schedule_at(
        cfg["duration_ms"] - cfg["quiesce_ms"],
        lambda: (generator.stop_cross(), deployment.mark_quiesced()),
        label="shard-sweep.quiesce")
    return deployment, generator, cfg


def _shard_run(state) -> Outcome:
    deployment, generator, cfg = state
    generator.start()
    deployment.start()
    deployment.run(cfg["duration_ms"])
    deployment.finalize()
    violations = [str(v) for v in deployment.all_violations()]
    for cluster in deployment.clusters:
        try:
            cluster.assert_safety()
        except AssertionError as exc:
            violations.append(str(exc))
    if not deployment.txns.committed:
        violations.append("engagement: no cross-shard transaction committed")

    summary = deployment.summary()
    e2e = deployment.aggregate_e2e_latency()
    commit = LatencyStats()
    for collector in deployment.collectors:
        commit.merge_from(collector.commit_latency)
    e2e_tail, e2e_tail_name = tail(e2e)
    commit_tail, commit_tail_name = tail(commit)
    router, txns = deployment.router, deployment.txns
    issued = generator.writes_issued + generator.txns_issued
    unresolved = generator.txns_issued - txns.committed - txns.aborted
    failed = router.failures + unresolved
    sim = {
        "sim_tput_ktps": summary["throughput_ktps"],
        "sim_e2e_p50_ms": e2e.p50,
        "sim_e2e_p99_ms": e2e_tail,
        "sim_commit_p50_ms": commit.p50,
        "sim_commit_p99_ms": commit_tail,
        "slo_miss_ratio": (misses(e2e, SHARD_LIMIT_MS) + failed)
        / max(1, e2e.count + failed),
        # 2PC aborts are answered requests, but not committed ones.
        "failed_ops_ratio": (failed + txns.aborted) / max(1, issued),
    }
    txs, blocks = summary["txs_committed"], summary["blocks_committed"]
    events = deployment.sim.events_processed
    messages = sum(c.network.stats.messages_sent for c in deployment.clusters)
    bytes_sent = sum(c.network.stats.bytes_sent for c in deployment.clusters)
    resolved = txns.committed + txns.aborted
    counts = {
        "sim.events": events,
        "sim.events_per_tx": events / max(1, txs),
        "net.msgs_per_block": messages / max(1, blocks),
        "net.bytes_per_tx": bytes_sent / max(1, txs),
        "net.dropped": sum(c.network.stats.messages_dropped
                           for c in deployment.clusters),
        "chain.txs_per_block": txs / max(1, blocks),
        "consensus.blocks_committed": blocks,
        "consensus.view_changes": _view_changes(
            n for c in deployment.clusters for n in c.nodes),
        "client.offered": issued,
        "client.acked": issued - failed,
        "client.mempool_peak_depth": max(router.peak_queue_depth),
        "shard.txn_commits": txns.committed,
        "shard.txn_aborts": txns.aborted,
        "shard.txn_abort_ratio": txns.aborted / max(1, resolved),
        "shard.txn_latency_ms": txns.txn_latency.mean,
        "shard.router_retransmissions": router.retransmissions,
        "shard.router_failures": router.failures,
        "harness.invariants.violations": len(violations),
    }
    notes = {"e2e_samples": e2e.count, "e2e_tail": e2e_tail_name,
             "commit_samples": commit.count, "commit_tail": commit_tail_name,
             "summary_tput_ktps": summary["throughput_ktps"],
             "delay": "LAN 0.1±0.02 ms RTT", "generator_lateness_ms": 0.0}
    tips = [(n.store.committed_tip.height, n.store.committed_tip.hash)
            for c in deployment.clusters for n in c.nodes]
    return Outcome(sim, counts, issued, failed, violations,
                   notes).seal(tips)


def _shard_parity(seed: int) -> "tuple[float, float]":
    """``sim_tput_ktps`` from this file's assembly and from
    ``run_shard_point`` for the same (smoke-sized) configuration."""
    cfg = _shard_sized(SMOKE_SCALE)
    mine = _shard_run(_shard_prepare(seed, SMOKE_SCALE))
    shards = cfg.pop("shards")
    theirs = run_shard_point(shards, seed=seed, **cfg)
    return mine.sim["sim_tput_ktps"], theirs["throughput_ktps"]


# ----------------------------------------------------------------------
# soak_recover_f1
# ----------------------------------------------------------------------
def _soak_prepare(seed, scale):
    return SoakSpec(
        scenario="recovery-under-load",
        warmup_ms=max(250.0, 500.0 * scale),
        pressure_ms=max(1000.0, 2000.0 * scale),
        reconverge_budget_ms=1500.0,
        settle_ms=max(250.0, 500.0 * scale),
    ), seed


def _soak_run(state) -> Outcome:
    spec, seed = state
    result = run_soak(spec, seed)
    windows = result.windows
    busy = [w for w in windows if w.committed and w.p50 > 0]
    measured = [w for w in windows if w.phase != "warmup"]
    pressure = [w for w in windows if w.phase == "pressure"]
    txs = sum(w.committed for w in windows)
    extras = result.extras
    attempted = extras["emitted"]
    failed = attempted - extras["accepted"]
    reconverge = (spec.reconverge_budget_ms
                  if result.reconverged_at_ms is None
                  else max(0.0, result.reconverged_at_ms - spec.release_ms))
    sim = {
        # The soak's public product is its window timeline, so the row's
        # latencies are window statistics, not whole-run percentiles.
        "sim_tput_ktps": txs / spec.duration_ms,
        "sim_e2e_p50_ms": statistics.median(w.p50 for w in busy),
        "sim_e2e_p99_ms": max(w.p99 for w in busy),
        "sim_outage_ms": max((w.p999 for w in pressure), default=0.0),
        "slo_miss_ratio": sum(1 for w in measured
                              if w.p99 > spec.slo_p99_ms or not w.committed)
        / max(1, len(measured)),
        "failed_ops_ratio": failed / max(1, attempted),
    }
    height = result.committed_height
    counts = {
        "sim.events": result.sim_events,
        "sim.events_per_tx": result.sim_events / max(1, txs),
        "chain.txs_per_block": txs / max(1, height),
        "consensus.blocks_committed": height,
        "consensus.view_changes": extras["view_changes"],
        "core.recoveries": result.recoveries,
        "client.offered": attempted,
        "client.acked": extras["accepted"],
        "client.mempool_peak_depth": max(w.mempool_depth for w in windows),
        "workload.flash_arrivals": extras["flash_arrivals"],
        "workload.overflow_drops": extras["overflow_drops"],
        "harness.soak.sim_reconverge_ms": reconverge,
        "harness.invariants.violations": len(result.violations),
    }
    violations = list(result.violations)
    if not result.recoveries:
        violations.append("engagement: no replica recovered")
    notes = {"windows": len(windows), "window_ms": spec.window_ms,
             "e2e_tail": "max window p99", "digest": result.digest,
             "delay": "LAN 0.1±0.02 ms RTT", "generator_lateness_ms": 0.0}
    return Outcome(sim, counts, attempted, failed, violations,
                   notes).seal(result.digest)


# ----------------------------------------------------------------------
# powercut_snap_f1
# ----------------------------------------------------------------------
def _powercut_prepare(seed, scale):
    spec = PowercutSpec(
        snapshot_interval=5, max_cuts=2, reorder_cuts=1,
        duration_ms=max(800.0, 900.0 * scale), quiesce_ms=400.0)
    # The exploration reports verdicts, not service levels.  The row's
    # throughput and latency are those of its own deployment (same seed,
    # arrivals and timeouts; snapshot vault on), run once more uncut.
    service = Experiment(
        spec.protocol, spec.f, spec.network, seed, spec.duration_ms,
        spec.warmup_ms, offered_tps=spec.base_rate_tps,
        batch_size=spec.batch_size, payload_size=spec.payload_size,
        config_overrides=dict(
            base_timeout_ms=spec.base_timeout_ms,
            timeout_jitter=spec.timeout_jitter,
            recovery_retry_ms=spec.recovery_retry_ms, snapshots=True,
            checkpoint_interval=spec.snapshot_interval,
            checkpoint_retain=spec.snapshot_retain))
    return spec, seed, service


def _powercut_run(state) -> Outcome:
    spec, seed, service_run = state
    result = run_powercut(spec, seed)
    service = service_run.run()
    fired = sum(1 for cut in result.cuts if cut.fired)
    bad_cuts = sum(1 for cut in result.cuts
                   if not cut.fired or cut.violations)
    attempted = service.attempted + len(result.cuts)
    failed = service.failed + bad_cuts
    violations = list(result.violations) + service.violations
    if not fired:
        violations.append("engagement: no power cut fired")
    sim = dict(service.sim, failed_ops_ratio=failed / max(1, attempted))
    counts = dict(service.counts)
    counts.update({
        "sim.events": result.sim_events + service.counts["sim.events"],
        "core.recoveries": fired,
        "client.offered": attempted,
        "client.acked": attempted - failed,
        "storage.points_total": result.points_total,
        "storage.points_eligible": result.points_eligible,
        "storage.cuts_fired": fired,
        "storage.records_dropped": result.extras["records_dropped"],
        "harness.invariants.violations": len(result.violations),
    })
    notes = dict(service.notes, digest=result.digest,
                 cut_kinds=[cut.kind for cut in result.cuts])
    return Outcome(sim, counts, attempted, failed, violations,
                   notes).seal(result.digest, service.digest)


# ----------------------------------------------------------------------
WORKLOADS = {w.name: w for w in (
    _experiment_row(
        "lan_sat_f10",
        "paper headline (Fig. 3c/d): achilles f=10 LAN saturated; host time "
        "spread over chain, sim, net, consensus, core, crypto",
        "achilles", 10, "LAN", 2000.0, 300.0),
    Workload(
        "wan_open_f10",
        "Fig. 4 axes on WAN: open-loop rate ladder; latency is network, "
        "host time is event core and arrivals, handlers do little",
        _wan_prepare, _wan_run, _wan_obs_config),
    _experiment_row(
        "lan_sat_n101",
        "O(n) fan-out at n=101: broadcast, quorum-certificate validation, "
        "where a region-parallel event core would show",
        "achilles", 50, "LAN", 1700.0, 300.0),
    _experiment_row(
        "counter_r_f10",
        "damysus-r with 20 ms counter writes on the critical path: the "
        "baseline Achilles is compared against must not get worse",
        "damysus-r", 10, "LAN", 20000.0, 300.0),
    Workload(
        "shard4_2pc",
        "4 shards, router and BFT-ordered 2PC: many small blocks, so "
        "per-block crypto, net, shard and invariant-monitor costs dominate",
        _shard_prepare, _shard_run, parity=_shard_parity),
    Workload(
        "leader_crash_f10",
        "requests sent on schedule through 4 leader crashes: time without "
        "service and rollback-resilient recovery time (Table 2)",
        _crash_prepare, _crash_run, parity=_crash_parity),
    Workload(
        "soak_recover_f1",
        "lognormal/Zipf/flash-crowd traffic through the phased soak "
        "pipeline: the only row where workload and soak layers do real work",
        _soak_prepare, _soak_run),
    Workload(
        "powercut_snap_f1",
        "power-cut exploration with snapshot vaults: the only row where "
        "the journal is active; durability by discarding unsynced writes",
        _powercut_prepare, _powercut_run),
)}
