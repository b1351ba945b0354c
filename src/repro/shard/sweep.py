"""Throughput-vs-shard-count sweep.

Weak scaling: offered load is *per shard*, so S shards field S× the
client traffic of one — the aggregate committed throughput should grow
close to linearly with the shard count while per-shard latency stays
flat (the point of sharding: groups order independently; only the
``cross_fraction`` of traffic pays 2PC coordination).

Every sweep point is also a correctness run: the per-shard invariant
monitors and the ``cross-shard-atomicity`` audit must pass, or the
sweep raises.
"""

from __future__ import annotations

from typing import Optional

from repro.harness.metrics import LatencyStats
from repro.harness.report import format_slo_breakdown, format_table
from repro.shard.deployment import ShardedDeployment


def run_shard_point(
    shards: int,
    protocol: str = "achilles",
    f: int = 1,
    seed: int = 0,
    network: str = "LAN",
    duration_ms: float = 2000.0,
    warmup_ms: float = 200.0,
    quiesce_ms: float = 600.0,
    rate_tps: float = 3000.0,
    cross_fraction: float = 0.1,
    batch_size: int = 100,
    payload_size: int = 64,
    check: bool = True,
) -> dict:
    """One sweep point: an S-shard deployment under per-shard open-loop
    load, quiesced so all 2PC instances resolve, audited, summarized.

    With ``check`` an invariant violation raises ``AssertionError``;
    without it the summary's ``violations`` lists them for the caller to
    report.  A shard whose replicas diverged raises either way."""
    from repro.client.workload import ShardedOpenLoopGenerator

    deployment = ShardedDeployment(
        protocol=protocol, shards=shards, f=f, seed=seed, network=network,
        batch_size=batch_size, payload_size=payload_size,
        warmup_ms=warmup_ms,
    )
    generator = ShardedOpenLoopGenerator(
        deployment.sim, deployment.router, deployment.txns,
        rate_tps=rate_tps,
        # A single shard has no one to cross to: this is the passive
        # zero-cross-shard mode the golden digests pin for S=1.
        cross_fraction=cross_fraction if shards > 1 else 0.0,
        payload_size=payload_size,
    )
    deployment.sim.schedule_at(
        duration_ms - quiesce_ms,
        lambda: (generator.stop_cross(), deployment.mark_quiesced()),
        label="shard-sweep.quiesce")

    generator.start()
    deployment.start()
    deployment.run(duration_ms)
    deployment.finalize()
    if check:
        deployment.assert_ok()
    else:
        for cluster in deployment.clusters:
            cluster.assert_safety()

    summary = deployment.summary()
    summary["violations"] = [str(v) for v in deployment.all_violations()]
    summary["protocol"] = protocol
    summary["seed"] = seed
    summary["offered_tps_per_shard"] = rate_tps
    summary["writes_issued"] = generator.writes_issued
    summary["txns_issued"] = generator.txns_issued
    summary["latency_by_shard"] = [
        collector.e2e_latency for collector in deployment.collectors]
    summary["aggregate_latency"] = deployment.aggregate_e2e_latency()
    return summary


def format_shard_sweep(rows: "list[dict]",
                       title: Optional[str] = None) -> str:
    """The sweep as an aligned text table (stdout and
    ``benchmarks/results/shard_sweep.txt``)."""
    headers = ["shards", "agg tput (ktps)", "txs", "2pc commit", "2pc abort",
               "p50 (ms)", "p99 (ms)", "p999 (ms)"]
    table_rows = [[
        str(row["shards"]),
        f"{row['throughput_ktps']:.1f}",
        str(row["txs_committed"]),
        str(row["txns_committed"]),
        str(row["txns_aborted"]),
        f"{row['e2e_latency_p50_ms']:.2f}",
        f"{row['e2e_latency_p99_ms']:.2f}",
        f"{row['e2e_latency_p999_ms']:.2f}",
    ] for row in rows]
    name = title or (f"{rows[0]['protocol']}: aggregate throughput vs "
                     f"shard count" if rows else "shard sweep")
    return format_table(headers, table_rows, title=name)


def format_shard_slo(rows: "list[dict]") -> str:
    """Per-shard + aggregate latency SLO columns for each sweep point."""
    stats: dict[str, LatencyStats] = {}
    for row in rows:
        label = f"S={row['shards']}"
        for s, latency in enumerate(row["latency_by_shard"]):
            stats[f"{label} shard{s}"] = latency
        stats[f"{label} aggregate"] = row["aggregate_latency"]
    return format_slo_breakdown(stats, title="per-shard latency SLOs")


__all__ = ["run_shard_point", "format_shard_sweep",
           "format_shard_slo"]
