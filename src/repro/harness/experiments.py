"""Per-figure/table experiment definitions (paper Sec. 5).

Every run-based artifact of the evaluation (Fig. 3a–l, Fig. 4, Fig. 5,
Table 3, the traced cost breakdown) is one :func:`sweep`: protocols × one
varied parameter at the paper's settings.  The benchmarks call it with
the ``FIG3_*`` constants, print the rows via
:func:`repro.harness.report.format_table` and record them in
``EXPERIMENTS.md``.  Durations adapt to committee size so the full suite
stays tractable while every configuration still commits enough blocks for
stable means.  Table 2 (a reboot per committee size) and Table 4 (counter
latencies) are not throughput runs and keep their own functions.
"""

from __future__ import annotations

import pathlib
from functools import partial
from typing import Optional, Sequence

from repro.faults.scenarios import crash_and_reboot
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


def sweep(
    vary: str,
    values: Sequence,
    *,
    protocols: Sequence[str],
    network: str,
    f: Optional[int] = None,
    seed: int,
    trace_dir: Optional[str] = None,
    **fixed,
) -> list[ExperimentResult]:
    """Run every protocol at every value of the ``run_experiment``
    parameter ``vary``, the rest ``fixed``; results protocol-major.

    ``f`` is every run's fault threshold unless ``vary`` is ``"f"``.  A
    run is sized by :func:`_window` unless ``duration_ms``/``warmup_ms``
    are fixed, and its ``extras`` are tagged ``{vary: value}`` (the Fig. 4
    and Fig. 5 tables read them).  ``trace_dir`` turns span tracing on and
    writes each run's Perfetto JSON there, named by protocol, f, network
    and seed.
    """
    configs = []
    for protocol in protocols:
        for value in values:
            config = dict(protocol=protocol, f=f, network=network, seed=seed,
                          **fixed)
            config[vary] = value
            duration, warmup = _window(network, protocol, config["f"])
            config.setdefault("duration_ms", duration)
            config.setdefault("warmup_ms", warmup)
            if trace_dir is not None:
                name = (f"{protocol}-f{config['f']}-{network.lower()}"
                        f"-seed{seed}.json")
                config.update(trace=True,
                              trace_path=str(pathlib.Path(trace_dir) / name))
            config["extras"] = {vary: value}
            configs.append(config)
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


__all__ = [
    "FIG3_PROTOCOLS",
    "FIG3_FAULTS",
    "FIG3_PAYLOADS",
    "FIG3_BATCHES",
    "sweep",
    "table2_recovery_breakdown",
    "table4_counter_latencies",
]
