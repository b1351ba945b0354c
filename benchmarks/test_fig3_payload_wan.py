"""Fig. 3e/3f — throughput and latency vs payload size, WAN.

Paper setting: payload ∈ {0, 256, 512} B, f = 10, batch 400.  Expected
shape: in WAN the RTT dominates, so payload has a small effect (paper:
≈10% throughput drop from 0 B to 512 B)."""

from __future__ import annotations

from bench_common import by_protocol, render
from conftest import quick_mode
from repro.harness.experiments import FIG3_PAYLOADS, FIG3_PROTOCOLS, sweep


def test_fig3_payload_wan(benchmark, record_table):
    f = 4 if quick_mode() else 10

    results = benchmark.pedantic(
        sweep, args=("payload_size", FIG3_PAYLOADS),
        kwargs=dict(protocols=FIG3_PROTOCOLS, network="WAN", f=f, seed=1,
                    batch_size=400),
        rounds=1, iterations=1,
    )
    record_table("fig3ef_payload_wan",
                 render(f"Fig. 3e/3f — WAN, vary payload (f={f}, batch 400)",
                        results))

    grouped = by_protocol(results)
    for protocol, series in grouped.items():
        small, large = series[0], series[-1]
        drop = 1 - large.throughput_ktps / max(1e-9, small.throughput_ktps)
        # WAN: payload matters little for every protocol (≤ ~35%).
        assert drop < 0.35, f"{protocol}: WAN payload drop {drop:.0%}"
