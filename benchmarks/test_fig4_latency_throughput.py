"""Fig. 4 — end-to-end latency vs achieved throughput, LAN (f = 10).

An open-loop Poisson load sweep per protocol.  Expected shape: latency is
flat until the protocol saturates, then the achieved throughput plateaus
at its Fig. 3 peak while latency climbs; saturation points order as
Achilles > FlexiBFT > OneShot-R > Damysus-R (paper: 9.38 / 4.95 / 4.23 /
2.66 KTPS at their testbed scale)."""

from __future__ import annotations

from bench_common import by_protocol
from conftest import quick_mode
from repro.harness.experiments import FIG3_PROTOCOLS, sweep
from repro.harness.report import format_table


def test_fig4_latency_vs_throughput(benchmark, record_table):
    f = 2 if quick_mode() else 10
    # The sweep must reach past every protocol's saturation point for the
    # peak ordering to be meaningful, even in quick mode.
    rates = (1000, 8000, 64000) if quick_mode() else \
        (500, 1000, 2000, 4000, 8000, 16000, 32000, 64000)

    results = benchmark.pedantic(
        sweep, args=("offered_load_tps", rates),
        kwargs=dict(protocols=FIG3_PROTOCOLS, network="LAN", f=f, seed=1,
                    batch_size=400, payload_size=256),
        rounds=1, iterations=1,
    )
    rows = [
        [r.protocol, r.extras["offered_load_tps"] / 1000.0,
         round(r.throughput_ktps, 2), round(r.e2e_latency_ms, 2)]
        for r in results
    ]
    from repro.harness.charts import ascii_xy_chart, series_from_results

    table = format_table(
        ["protocol", "offered (KTPS)", "achieved (KTPS)", "e2e latency (ms)"],
        rows,
        title=f"Fig. 4 — LAN latency vs throughput (f={f}, batch 400, 256 B)",
    )
    chart = ascii_xy_chart(
        series_from_results(results, "throughput_ktps", "e2e_latency_ms"),
        title="Fig. 4 (shape) — e2e latency vs achieved throughput, log y",
        x_label="achieved KTPS", y_label="ms", log_y=True,
    )
    record_table("fig4_latency_throughput", table + "\n\n" + chart)

    grouped = by_protocol(results)

    def saturation(series):
        return max(r.throughput_ktps for r in series)

    achilles_peak = saturation(grouped["achilles"])
    damysus_peak = saturation(grouped["damysus-r"])
    oneshot_peak = saturation(grouped["oneshot-r"])
    # Saturation ordering (paper Fig. 4): Achilles on top, Damysus-R last.
    assert achilles_peak > oneshot_peak > damysus_peak
    # Below saturation, achieved ≈ offered for Achilles.
    low = grouped["achilles"][0]
    assert low.throughput_ktps * 1000 >= 0.7 * low.extras["offered_load_tps"]
    # Past saturation, Damysus-R latency must have exploded vs its low-load
    # latency.
    damysus = grouped["damysus-r"]
    assert damysus[-1].e2e_latency_ms > 2 * damysus[0].e2e_latency_ms
