"""Fig. 3a/3b — throughput and latency vs fault threshold, WAN.

Paper setting: f ∈ {1, 2, 4, 10, 20, 30}, batch 400, payload 256 B,
40 ± 0.2 ms RTT.  Expected shape: Achilles leads throughout; Damysus-R is
slowest at small f; FlexiBFT's latency grows fastest with f (n = 3f+1).
"""

from __future__ import annotations

from bench_common import by_protocol, render
from conftest import quick_mode
from repro.harness.experiments import FIG3_FAULTS, FIG3_PROTOCOLS, sweep


def test_fig3_faults_wan(benchmark, record_table):
    faults = (1, 2, 4) if quick_mode() else FIG3_FAULTS

    results = benchmark.pedantic(
        sweep, args=("f", faults),
        kwargs=dict(protocols=FIG3_PROTOCOLS, network="WAN", seed=1,
                    batch_size=400, payload_size=256),
        rounds=1, iterations=1,
    )
    record_table("fig3ab_faults_wan",
                 render("Fig. 3a/3b — WAN, vary f (batch 400, payload 256 B)",
                        results))

    grouped = by_protocol(results)
    achilles = grouped["achilles"]
    damysus_r = grouped["damysus-r"]
    # Achilles beats Damysus-R at every f, in both metrics.
    for a, d in zip(achilles, damysus_r):
        assert a.throughput_ktps > d.throughput_ktps
        assert a.commit_latency_ms < d.commit_latency_ms
    # FlexiBFT latency grows noticeably with f (paper Sec. 5.2.1).
    flexi = grouped["flexibft"]
    assert flexi[-1].commit_latency_ms > flexi[0].commit_latency_ms
