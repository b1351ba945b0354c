"""Fig. 3c/3d — throughput and latency vs fault threshold, LAN.

Paper setting: f ∈ {1, 2, 4, 10, 20, 30}, batch 400, payload 256 B,
0.1 ± 0.02 ms RTT.  Expected shape: with network costs negligible the
persistent counter dominates — Achilles is an order of magnitude above the
-R baselines, whose throughput barely moves with f.
"""

from __future__ import annotations

from bench_common import by_protocol, render
from conftest import quick_mode
from repro.harness.experiments import FIG3_FAULTS, FIG3_PROTOCOLS, sweep


def test_fig3_faults_lan(benchmark, record_table):
    faults = (1, 2, 4) if quick_mode() else FIG3_FAULTS

    results = benchmark.pedantic(
        sweep, args=("f", faults),
        kwargs=dict(protocols=FIG3_PROTOCOLS, network="LAN", seed=1,
                    batch_size=400, payload_size=256),
        rounds=1, iterations=1,
    )
    from repro.harness.charts import ascii_xy_chart, series_from_results

    table = render("Fig. 3c/3d — LAN, vary f (batch 400, payload 256 B)",
                   results)
    chart = ascii_xy_chart(
        series_from_results(results, "f", "throughput_ktps"),
        title="Fig. 3c (shape) — LAN throughput vs f, log scale",
        x_label="f", y_label="KTPS", log_y=True,
    )
    record_table("fig3cd_faults_lan", table + "\n\n" + chart)

    grouped = by_protocol(results)
    for f_index in range(len(faults)):
        achilles = grouped["achilles"][f_index]
        damysus_r = grouped["damysus-r"][f_index]
        oneshot_r = grouped["oneshot-r"][f_index]
        # Paper: Achilles ≈ 18–36× Damysus-R and 8–18× OneShot-R in LAN.
        assert achilles.throughput_ktps > 5 * damysus_r.throughput_ktps
        assert achilles.throughput_ktps > 3 * oneshot_r.throughput_ktps
    # Counter-bound protocols barely move with f (cost is the counter).
    damysus_r = grouped["damysus-r"]
    spread = max(r.throughput_ktps for r in damysus_r) / \
        max(1e-9, min(r.throughput_ktps for r in damysus_r))
    assert spread < 2.5
