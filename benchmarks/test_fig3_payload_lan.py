"""Fig. 3g/3h — throughput and latency vs payload size, LAN.

Paper setting: payload ∈ {0, 256, 512} B, f = 10, batch 400.  Expected
shape: counter-bound protocols are payload-insensitive (the counter
dominates); Achilles — bound by serialization/hashing — loses most
(paper: ≈70% throughput drop, ≈3× latency from 0 B to 512 B)."""

from __future__ import annotations

from bench_common import by_protocol, render
from conftest import quick_mode
from repro.harness.experiments import FIG3_PAYLOADS, FIG3_PROTOCOLS, sweep


def test_fig3_payload_lan(benchmark, record_table):
    f = 4 if quick_mode() else 10

    results = benchmark.pedantic(
        sweep, args=("payload_size", FIG3_PAYLOADS),
        kwargs=dict(protocols=FIG3_PROTOCOLS, network="LAN", f=f, seed=1,
                    batch_size=400),
        rounds=1, iterations=1,
    )
    record_table("fig3gh_payload_lan",
                 render(f"Fig. 3g/3h — LAN, vary payload (f={f}, batch 400)",
                        results))

    grouped = by_protocol(results)
    achilles = grouped["achilles"]
    achilles_drop = 1 - achilles[-1].throughput_ktps / achilles[0].throughput_ktps
    damysus_drop = 1 - grouped["damysus-r"][-1].throughput_ktps / \
        grouped["damysus-r"][0].throughput_ktps
    # Achilles is far more payload-sensitive than the counter-bound
    # Damysus-R (paper: ~70% vs ~13.5%).
    assert achilles_drop > 0.4
    assert damysus_drop < 0.25
    assert achilles[-1].commit_latency_ms > 1.8 * achilles[0].commit_latency_ms
