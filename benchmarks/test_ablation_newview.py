"""Ablation — the New-View optimization (Sec. 4.4).

Stock Achilles lets the leader of view v+1 propose the moment it holds the
commitment certificate of view v.  The ablated variant always runs the
NEW-VIEW phase (TEEview + f+1 view certificates + TEEaccum) between views.
The benchmark quantifies the optimization: one extra communication step
per view in WAN, plus per-view accumulator work in LAN."""

from __future__ import annotations

from conftest import quick_mode
from repro.client.workload import SaturatedSource
from repro.consensus.cluster import build_cluster
from repro.consensus.config import ProtocolConfig
from repro.core.ablations import NoNewViewOptimizationNode
from repro.core.node import AchillesNode
from repro.harness.metrics import MetricsCollector
from repro.harness.report import format_table
from repro.net.latency import LAN_PROFILE, WAN_PROFILE


def _run(node_cls, latency, f, duration_ms, warmup_ms, seed=17):
    config = ProtocolConfig.tee_committee(f=f, batch_size=400, payload_size=256,
                                          seed=seed)
    collector = MetricsCollector(warmup_ms=warmup_ms,
                                 reply_one_way_ms=latency.one_way_ms)
    cluster = build_cluster(
        node_factory=node_cls, config=config, latency=latency,
        source_factory=lambda sim: SaturatedSource(
            sim, payload_size=256, client_one_way_ms=latency.one_way_ms),
        listener=collector, seed=seed,
    )
    cluster.start()
    cluster.run(duration_ms)
    cluster.assert_safety()
    return collector


def _sweep():
    f = 2 if quick_mode() else 4
    rows = []
    outcomes = {}
    for network, latency, duration, warmup in (
        ("LAN", LAN_PROFILE, 1200.0, 250.0),
        ("WAN", WAN_PROFILE, 6000.0, 1200.0),
    ):
        stock = _run(AchillesNode, latency, f, duration, warmup)
        ablated = _run(NoNewViewOptimizationNode, latency, f, duration, warmup)
        rows.append([network, "achilles",
                     round(stock.throughput_ktps(duration), 2),
                     round(stock.commit_latency.mean, 2)])
        rows.append([network, "achilles (no new-view opt.)",
                     round(ablated.throughput_ktps(duration), 2),
                     round(ablated.commit_latency.mean, 2)])
        outcomes[network] = (stock, ablated)
    return rows, outcomes


def test_ablation_new_view_optimization(benchmark, record_table):
    rows, outcomes = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    record_table("ablation_newview", format_table(
        ["network", "variant", "tput (KTPS)", "commit lat (ms)"],
        rows,
        title="Ablation — New-View optimization (batch 400, payload 256 B)",
    ))

    for network, (stock, ablated) in outcomes.items():
        assert stock.throughput_ktps() > ablated.throughput_ktps(), network
    # WAN: the extra communication step shows up as ≈ one-way-delay more
    # per view → ≥ 20% throughput advantage for the optimization.
    wan_stock, wan_ablated = outcomes["WAN"]
    assert wan_stock.throughput_ktps() > 1.15 * wan_ablated.throughput_ktps()
