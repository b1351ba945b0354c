"""Fig. 5 — throughput/latency vs persistent-counter write latency, LAN.

Paper setting (Appendix C.2): write latency ∈ {0, 10, 20, 40, 80} ms for
Damysus-R, FlexiBFT, OneShot-R at f = 10.  Expected shape: at 0 ms the
protocols run unprotected and fast; from 10 ms on the counter dominates
and performance decreases proportionally to the write latency."""

from __future__ import annotations

from bench_common import by_protocol
from conftest import quick_mode
from repro.harness.experiments import sweep
from repro.harness.report import format_table


def test_fig5_counter_write_latency(benchmark, record_table):
    f = 2 if quick_mode() else 10
    lats = (0, 20, 80) if quick_mode() else (0, 10, 20, 40, 80)

    results = benchmark.pedantic(
        sweep, args=("counter_write_ms", lats),
        kwargs=dict(protocols=("damysus-r", "flexibft", "oneshot-r"),
                    network="LAN", f=f, seed=1, batch_size=400,
                    payload_size=256),
        rounds=1, iterations=1,
    )
    rows = [
        [r.protocol, r.extras["counter_write_ms"],
         round(r.throughput_ktps, 2), round(r.commit_latency_ms, 2)]
        for r in results
    ]
    record_table("fig5_counter_sweep", format_table(
        ["protocol", "write latency (ms)", "tput (KTPS)", "commit lat (ms)"],
        rows,
        title=f"Fig. 5 — LAN, vary counter write latency (f={f})",
    ))

    grouped = by_protocol(results)
    for protocol, series in grouped.items():
        tputs = [r.throughput_ktps for r in series]
        # Monotone decline with write latency.
        assert all(a >= b * 0.98 for a, b in zip(tputs, tputs[1:])), \
            f"{protocol}: throughput must fall as the counter slows: {tputs}"
        # The unprotected (0 ms) point towers over the slowest counter.
        assert tputs[0] > 3 * tputs[-1], protocol
    # Damysus-R (two writes per node per view) suffers more than FlexiBFT
    # (leader-only write) at every non-zero latency.
    for d, fx in zip(grouped["damysus-r"][1:], grouped["flexibft"][1:]):
        assert d.throughput_ktps < fx.throughput_ktps
