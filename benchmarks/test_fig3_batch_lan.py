"""Fig. 3k/3l — throughput and latency vs batch size, LAN.

Paper setting: batch ∈ {200, 400, 600}, f = 10, payload 256 B.  Expected
shape: throughput grows strongly with batch for every protocol, and
Achilles stays far ahead of the counter-bound baselines at every batch
size."""

from __future__ import annotations

from bench_common import by_protocol, render
from conftest import quick_mode
from repro.harness.experiments import FIG3_BATCHES, FIG3_PROTOCOLS, sweep


def test_fig3_batch_lan(benchmark, record_table):
    f = 4 if quick_mode() else 10

    results = benchmark.pedantic(
        sweep, args=("batch_size", FIG3_BATCHES),
        kwargs=dict(protocols=FIG3_PROTOCOLS, network="LAN", f=f, seed=1,
                    payload_size=256),
        rounds=1, iterations=1,
    )
    record_table("fig3kl_batch_lan",
                 render(f"Fig. 3k/3l — LAN, vary batch (f={f}, payload 256 B)",
                        results))

    grouped = by_protocol(results)
    for batch_index in range(3):
        achilles = grouped["achilles"][batch_index]
        for other in ("damysus-r", "oneshot-r", "flexibft"):
            rival = grouped[other][batch_index]
            assert achilles.throughput_ktps > rival.throughput_ktps, \
                f"achilles must lead {other} at batch {achilles.batch_size}"
    # Counter-bound protocols gain nearly linearly with batch (the view
    # time is fixed by the counter).
    damysus = grouped["damysus-r"]
    gain = damysus[-1].throughput_ktps / damysus[0].throughput_ktps
    assert 2.2 <= gain <= 3.5
