"""Table 3 — overhead profiling: Achilles vs Achilles-C vs BRaft, LAN.

Paper setting: f ∈ {2, 4, 10}, batch 400, payload 256 B.  Expected shape:
BRaft (CFT, no crypto) ≥ Achilles-C (Achilles logic outside SGX) ≥
Achilles, with Achilles retaining a large fraction of both (paper: 76.3%
of Achilles-C and 97.3% of BRaft at f = 10)."""

from __future__ import annotations

from bench_common import by_protocol
from conftest import quick_mode
from repro.harness.experiments import sweep
from repro.harness.report import format_table


def test_table3_overhead_profiling(benchmark, record_table):
    faults = (2,) if quick_mode() else (2, 4, 10)

    results = benchmark.pedantic(
        sweep, args=("f", faults),
        kwargs=dict(protocols=("achilles", "achilles-c", "braft"),
                    network="LAN", seed=1, batch_size=400, payload_size=256),
        rounds=1, iterations=1,
    )
    rows = [
        [r.protocol, r.f, round(r.throughput_ktps, 1),
         round(r.commit_latency_ms, 2)]
        for r in results
    ]
    record_table("table3_overhead", format_table(
        ["protocol", "f", "tput (KTPS)", "latency (ms)"],
        rows,
        title="Table 3 — overhead profiling in LAN (batch 400, payload 256 B)",
    ))

    grouped = by_protocol(results)
    for i, f in enumerate(faults):
        achilles = grouped["achilles"][i]
        achilles_c = grouped["achilles-c"][i]
        braft = grouped["braft"][i]
        # Ordering: stripping SGX helps; stripping BFT helps more.
        assert braft.throughput_ktps >= achilles_c.throughput_ktps
        assert achilles_c.throughput_ktps >= achilles.throughput_ktps
        # SGX overhead is bounded: Achilles keeps ≥ 60% of Achilles-C
        # (paper: 76.3% at f = 10).
        assert achilles.throughput_ktps >= 0.6 * achilles_c.throughput_ktps
        # BFT+TEE vs CFT stays within one order of magnitude.
        assert achilles.throughput_ktps >= 0.2 * braft.throughput_ktps
