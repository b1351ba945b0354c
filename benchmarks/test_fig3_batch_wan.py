"""Fig. 3i/3j — throughput and latency vs batch size, WAN.

Paper setting: batch ∈ {200, 400, 600}, f = 10, payload 256 B.  Expected
shape: batching is nearly free throughput in WAN — tripling the batch
roughly triples throughput (paper: ≈ +180%) with only a slight latency
increase (paper: +3.5% to +11.2%)."""

from __future__ import annotations

from bench_common import by_protocol, render
from conftest import quick_mode
from repro.harness.experiments import FIG3_BATCHES, FIG3_PROTOCOLS, sweep


def test_fig3_batch_wan(benchmark, record_table):
    f = 4 if quick_mode() else 10

    results = benchmark.pedantic(
        sweep, args=("batch_size", FIG3_BATCHES),
        kwargs=dict(protocols=FIG3_PROTOCOLS, network="WAN", f=f, seed=1,
                    payload_size=256),
        rounds=1, iterations=1,
    )
    record_table("fig3ij_batch_wan",
                 render(f"Fig. 3i/3j — WAN, vary batch (f={f}, payload 256 B)",
                        results))

    grouped = by_protocol(results)
    for protocol, series in grouped.items():
        small, large = series[0], series[-1]
        gain = large.throughput_ktps / max(1e-9, small.throughput_ktps)
        assert gain > 2.0, f"{protocol}: batch 200→600 gain only {gain:.2f}x"
        latency_growth = large.commit_latency_ms / small.commit_latency_ms
        assert latency_growth < 1.5, \
            f"{protocol}: batch should barely affect WAN latency"
