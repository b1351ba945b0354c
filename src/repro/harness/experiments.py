"""Per-figure/table experiment definitions (paper Sec. 5).

Each function regenerates the data series behind one paper artifact and
returns plain rows; the benchmarks print them via
:func:`repro.harness.report.format_table` and record them in
``EXPERIMENTS.md``.  Durations adapt to committee size so the full suite
stays tractable while every configuration still commits enough blocks for
stable means.
"""

from __future__ import annotations

import pathlib
from functools import partial
from typing import Sequence

from repro.faults.crash import crash_and_reboot
from repro.harness.metrics import MetricsCollector
from repro.harness.parallel import parallel_map, run_experiments
from repro.harness.runner import (
    ExperimentResult,
    build_deployment,
    protocol_config,
    resolve_protocol,
)
from repro.net.latency import LAN_PROFILE

#: The four protocols Fig. 3/4 compare.
FIG3_PROTOCOLS = ("achilles", "damysus-r", "flexibft", "oneshot-r")
#: The fault thresholds Fig. 3a–3d sweep.
FIG3_FAULTS = (1, 2, 4, 10, 20, 30)
#: Payload sizes for Fig. 3e–3h.
FIG3_PAYLOADS = (0, 256, 512)
#: Batch sizes for Fig. 3i–3l.
FIG3_BATCHES = (200, 400, 600)


def _window(network: str, protocol: str, f: int) -> tuple[float, float]:
    """(duration, warmup) in ms, adapted to network and committee size."""
    n = resolve_protocol(protocol).committee(f)
    if network.upper() == "WAN":
        duration = 6000.0 if n <= 45 else 4500.0
        return duration, 1200.0
    duration = 1200.0 if n <= 45 else 700.0
    return duration, 250.0


def fig3_fault_sweep(
    network: str,
    faults: Sequence[int] = FIG3_FAULTS,
    protocols: Sequence[str] = FIG3_PROTOCOLS,
    batch_size: int = 400,
    payload_size: int = 256,
    seed: int = 1,
) -> list[ExperimentResult]:
    """Fig. 3a/3b (WAN) and 3c/3d (LAN): vary the fault threshold."""
    configs = []
    for protocol in protocols:
        for f in faults:
            duration, warmup = _window(network, protocol, f)
            configs.append(dict(
                protocol=protocol, f=f, network=network,
                batch_size=batch_size, payload_size=payload_size,
                duration_ms=duration, warmup_ms=warmup, seed=seed,
            ))
    return run_experiments(configs)


def fig3_payload_sweep(
    network: str,
    payloads: Sequence[int] = FIG3_PAYLOADS,
    protocols: Sequence[str] = FIG3_PROTOCOLS,
    f: int = 10,
    batch_size: int = 400,
    seed: int = 1,
) -> list[ExperimentResult]:
    """Fig. 3e/3f (WAN) and 3g/3h (LAN): vary the transaction payload."""
    configs = []
    for protocol in protocols:
        for payload in payloads:
            duration, warmup = _window(network, protocol, f)
            configs.append(dict(
                protocol=protocol, f=f, network=network,
                batch_size=batch_size, payload_size=payload,
                duration_ms=duration, warmup_ms=warmup, seed=seed,
            ))
    return run_experiments(configs)


def fig3_batch_sweep(
    network: str,
    batches: Sequence[int] = FIG3_BATCHES,
    protocols: Sequence[str] = FIG3_PROTOCOLS,
    f: int = 10,
    payload_size: int = 256,
    seed: int = 1,
) -> list[ExperimentResult]:
    """Fig. 3i/3j (WAN) and 3k/3l (LAN): vary the batch size."""
    configs = []
    for protocol in protocols:
        for batch in batches:
            duration, warmup = _window(network, protocol, f)
            configs.append(dict(
                protocol=protocol, f=f, network=network,
                batch_size=batch, payload_size=payload_size,
                duration_ms=duration, warmup_ms=warmup, seed=seed,
            ))
    return run_experiments(configs)


def fig4_latency_vs_throughput(
    protocols: Sequence[str] = FIG3_PROTOCOLS,
    rates_tps: Sequence[float] = (500, 1000, 2000, 4000, 8000, 16000, 32000, 64000),
    f: int = 10,
    batch_size: int = 400,
    payload_size: int = 256,
    seed: int = 1,
) -> list[ExperimentResult]:
    """Fig. 4: open-loop offered-load sweep to saturation, LAN.

    Each row reports achieved throughput and end-to-end latency at one
    offered load; past saturation, throughput plateaus and latency climbs.
    """
    configs = []
    for protocol in protocols:
        for rate in rates_tps:
            duration, warmup = _window("LAN", protocol, f)
            configs.append(dict(
                protocol=protocol, f=f, network="LAN",
                batch_size=batch_size, payload_size=payload_size,
                duration_ms=duration, warmup_ms=warmup, seed=seed,
                offered_load_tps=rate,
                extras={"offered_load_tps": rate},
            ))
    return run_experiments(configs)


def fig5_counter_sweep(
    write_latencies_ms: Sequence[float] = (0, 10, 20, 40, 80),
    protocols: Sequence[str] = ("damysus-r", "flexibft", "oneshot-r"),
    f: int = 10,
    batch_size: int = 400,
    payload_size: int = 256,
    seed: int = 1,
) -> list[ExperimentResult]:
    """Fig. 5: performance vs persistent-counter write latency, LAN.

    At 0 ms the rows show the protocols *without* rollback prevention.
    """
    configs = []
    for protocol in protocols:
        for write_ms in write_latencies_ms:
            duration, warmup = _window("LAN", protocol, f)
            configs.append(dict(
                protocol=protocol, f=f, network="LAN",
                batch_size=batch_size, payload_size=payload_size,
                counter_write_ms=write_ms,
                duration_ms=duration, warmup_ms=warmup, seed=seed,
                extras={"counter_write_ms": write_ms},
            ))
    return run_experiments(configs)


def cost_breakdown_sweep(
    network: str = "LAN",
    protocols: Sequence[str] = FIG3_PROTOCOLS,
    f: int = 2,
    batch_size: int = 400,
    payload_size: int = 256,
    counter_write_ms: float = 20.0,
    seed: int = 1,
    trace_dir: "str | None" = None,
) -> list[ExperimentResult]:
    """Where does each protocol's commit latency go? (paper Sec. 5, Table 4)

    Runs the Fig. 3 protocol set with :mod:`repro.obs` tracing enabled and
    returns results whose ``extras`` carry the per-bucket critical-path
    attribution (``cp_counter_ms``, ``cp_network_ms``, ...).  The headline
    contrast: Damysus-R/OneShot-R pay a persistent-counter write on every
    hop of the commit path, Achilles pays none.  ``trace_dir`` additionally
    writes one Perfetto JSON per protocol there.
    """
    configs = []
    for protocol in protocols:
        duration, warmup = _window(network, protocol, f)
        trace_path = None
        if trace_dir is not None:
            safe = protocol.replace("/", "_")
            trace_path = str(pathlib.Path(trace_dir) /
                             f"{safe}-f{f}-{network.lower()}-seed{seed}.json")
        configs.append(dict(
            protocol=protocol, f=f, network=network,
            batch_size=batch_size, payload_size=payload_size,
            counter_write_ms=counter_write_ms,
            duration_ms=duration, warmup_ms=warmup, seed=seed,
            trace=True, trace_path=trace_path,
        ))
    return run_experiments(configs)


def _table2_row(n: int, seed: int = 1) -> dict:
    """One Table 2 row (module-level so it pickles into pool workers)."""
    f = (n - 1) // 2
    spec = resolve_protocol("achilles")
    config = protocol_config(spec, f, seed, counter_write_ms=0.0,
                             batch_size=100, payload_size=64)
    deployment = build_deployment(spec, config, LAN_PROFILE, seed,
                                  listener=MetricsCollector(warmup_ms=0.0))
    cluster = deployment.cluster
    victim = 2 % n if n > 2 else 0
    crash_and_reboot(cluster, victim, at_ms=150.0, downtime_ms=20.0)
    deployment.run(600.0)
    cluster.assert_safety()
    node = cluster.nodes[victim]
    episode = node.recovery_episodes[-1] if node.recovery_episodes else None
    return {
        "nodes": n,
        "initialization_ms": episode.init_ms if episode else float("nan"),
        "recovery_ms": episode.protocol_ms if episode else float("nan"),
        "total_ms": episode.total_ms if episode else float("nan"),
        "recovered": episode is not None,
    }


def table2_recovery_breakdown(
    node_counts: Sequence[int] = (3, 5, 9, 21, 41, 61),
    seed: int = 1,
) -> list[dict]:
    """Table 2: initialization + recovery latency vs committee size, LAN.

    One node reboots mid-run; we report its recovery episode's breakdown.
    """
    return parallel_map(partial(_table2_row, seed=seed), node_counts)


def table3_overhead_profiling(
    faults: Sequence[int] = (2, 4, 10),
    protocols: Sequence[str] = ("achilles", "achilles-c", "braft"),
    batch_size: int = 400,
    payload_size: int = 256,
    seed: int = 1,
) -> list[ExperimentResult]:
    """Table 3: Achilles vs Achilles-C vs BRaft peak throughput/latency, LAN."""
    configs = []
    for protocol in protocols:
        for f in faults:
            duration, warmup = _window("LAN", protocol, f)
            configs.append(dict(
                protocol=protocol, f=f, network="LAN",
                batch_size=batch_size, payload_size=payload_size,
                duration_ms=duration, warmup_ms=warmup, seed=seed,
            ))
    return run_experiments(configs)


def table4_counter_latencies(samples: int = 200) -> list[dict]:
    """Table 4: measured write/read latency of each counter class."""
    import random

    from repro.tee.counters import NarratorCounter, SGXCounter, TPMCounter

    rows = []
    for name, factory in (
        ("TPM", TPMCounter),
        ("SGX", SGXCounter),
        ("Narrator_LAN", lambda: NarratorCounter("LAN")),
        ("Narrator_WAN", lambda: NarratorCounter("WAN")),
    ):
        counter = factory().seed(random.Random(0))
        writes = [counter.increment()[1] for _ in range(samples)]
        reads = [counter.read()[1] for _ in range(samples)]
        rows.append({
            "counter": name,
            "write_ms": sum(writes) / len(writes),
            "read_ms": sum(reads) / len(reads),
        })
    return rows


#: Defended-protocol Byzantine sweep: protocol → *bundles* of stacked
#: strategies, each bundle one chaos run (the robustness claim: every
#: attack engages, zero invariants trip).  Bundles group strategies that
#: can all demonstrably engage in one run: equivocate's split horizon
#: plus withhold-vote silences three of five voters whenever the
#: Byzantine replica leads, so the quorum stalls its slots and backoff
#: collapses throughput — legitimate attack behaviour, but it starves
#: hide-decide of the commit traffic its engagement check needs.  The
#: adversarial combination is still covered (first bundle); reactive
#: strategies ride in calmer company.
BYZ_DEFENDED_MATRIX: "dict[str, tuple[tuple[str, ...], ...]]" = {
    "achilles": (("equivocate", "withhold-vote", "garbage"),
                 ("hide-decide", "lie-recovery", "replay-recovery")),
    "achilles-c": (("equivocate", "withhold-vote", "garbage"),
                   ("hide-decide", "lie-recovery", "replay-recovery")),
    "minbft": (("equivocate", "withhold-vote", "garbage"),
               ("hide-decide", "skip-counter")),
    "damysus": (("equivocate", "withhold-vote", "garbage"),
                ("hide-decide",)),
    "damysus-r": (("equivocate", "withhold-vote", "garbage"),
                  ("hide-decide", "stale-seal")),
}

#: Negative controls: (protocol, strategies, invariants that MUST trip).
#: Unprotected baselines demonstrably break where the TEE-defended
#: protocols hold — proof that the attacks are real, not no-ops.
BYZ_NEGATIVE_CONTROLS: "tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]" = (
    ("braft", ("equivocate",), ("agreement",)),
    ("damysus", ("stale-seal",), ("sealed-state-freshness",)),
    ("oneshot", ("stale-seal",), ("sealed-state-freshness",)),
)


def byz_defended_sweep(seeds: Sequence[int] = range(5), f: int = 2,
                       duration_ms: float = 2500.0,
                       quiesce_ms: float = 1000.0) -> "list":
    """Run the full defended matrix: every strategy bundle stacked on one
    Byzantine replica, per protocol × bundle × seed.  Returns
    :class:`~repro.faults.chaos.ChaosResult` objects — callers assert
    zero violations and nonzero attempt counters per strategy."""
    from repro.faults.chaos import ChaosResult, run_chaos_seed

    configs = []
    for protocol, bundles in BYZ_DEFENDED_MATRIX.items():
        for bundle in bundles:
            # The quorum-starvation bundle stalls every Byzantine-led view
            # (split horizon + withheld vote leave 2 < f+1 voters), which
            # is survivable alone but compounds with honest crashes into
            # runaway pacemaker backoff — "eventually live" drifting past
            # the post-quiesce window.  Measure pure Byzantine pressure
            # there; the reactive bundle keeps the full crash/rollback
            # load (the recovery attacks need crash victims to lie to).
            quorum_attack = "withhold-vote" in bundle and \
                "equivocate" in bundle
            for seed in seeds:
                configs.append(dict(
                    protocol=protocol, f=f, duration_ms=duration_ms,
                    quiesce_ms=quiesce_ms, byz=bundle, byz_nodes=1,
                    seed=seed,
                    **({"crashes": 0, "rollbacks": 0} if quorum_attack
                       else {}),
                ))
    return run_experiments(configs, runner=run_chaos_seed,
                           result_type=ChaosResult, unpack=False)


def byz_negative_controls(seed: int = 1, f: int = 2,
                          duration_ms: float = 2500.0,
                          quiesce_ms: float = 1000.0) -> "list":
    """Run the negative-control set: each unprotected baseline under the
    attack its missing defense admits, in expect-violation mode."""
    from repro.faults.chaos import ChaosResult, run_chaos_seed

    configs = [
        dict(protocol=protocol, f=f, duration_ms=duration_ms,
             quiesce_ms=quiesce_ms, byz=strategies, byz_nodes=1,
             expect_violations=expected, seed=seed)
        for protocol, strategies, expected in BYZ_NEGATIVE_CONTROLS
    ]
    return run_experiments(configs, runner=run_chaos_seed,
                           result_type=ChaosResult, unpack=False)


__all__ = [
    "BYZ_DEFENDED_MATRIX",
    "BYZ_NEGATIVE_CONTROLS",
    "byz_defended_sweep",
    "byz_negative_controls",
    "FIG3_PROTOCOLS",
    "FIG3_FAULTS",
    "FIG3_PAYLOADS",
    "FIG3_BATCHES",
    "fig3_fault_sweep",
    "fig3_payload_sweep",
    "fig3_batch_sweep",
    "fig4_latency_vs_throughput",
    "fig5_counter_sweep",
    "cost_breakdown_sweep",
    "table2_recovery_breakdown",
    "table3_overhead_profiling",
    "table4_counter_latencies",
]
