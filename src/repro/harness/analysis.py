"""Trace analysis: the measured half of Table 1.

Table 1 compares protocols on threshold, rollback resistance, persistent-
counter usage, message complexity, and communication steps.  The static
columns are protocol properties; the measured columns come from running
each protocol and counting network messages and counter writes per
committed block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.harness.experiments import sweep
from repro.harness.parallel import parallel_map
from repro.harness.metrics import MetricsCollector
from repro.harness.runner import (
    PROTOCOLS,
    build_deployment,
    protocol_config,
    run_experiment,
)
from repro.net.latency import LAN_PROFILE


@dataclass(frozen=True)
class ProtocolProfile:
    """Static + measured Table 1 row for one protocol."""

    protocol: str
    threshold: str
    rollback_resistant: bool
    counter_writes_per_commit: float
    messages_per_commit: float
    communication_steps: int
    reply_responsive: bool


#: Static Table 1 facts (threshold, steps, responsiveness).
STATIC_FACTS: dict[str, tuple[str, int, bool, bool]] = {
    # name: (threshold, end-to-end steps, reply responsive, rollback resistant)
    "achilles": ("2f+1", 4, True, True),
    "damysus": ("2f+1", 6, False, False),
    "damysus-r": ("2f+1", 6, False, True),
    "oneshot": ("2f+1", 4, False, False),
    "oneshot-r": ("2f+1", 4, False, True),
    "flexibft": ("3f+1", 4, True, True),
    "minbft": ("2f+1", 4, False, False),
    "minbft-r": ("2f+1", 4, False, True),
}


def measure_protocol(protocol: str, f: int = 2, seed: int = 1) -> ProtocolProfile:
    """Run a short deployment and derive the measured Table 1 columns."""
    result = run_experiment(
        protocol, f=f, network="LAN", batch_size=50, payload_size=64,
        duration_ms=800.0, warmup_ms=100.0, seed=seed,
    )
    blocks = max(1, result.blocks_committed)
    threshold, steps, responsive, resistant = STATIC_FACTS[protocol]
    return ProtocolProfile(
        protocol=protocol,
        threshold=threshold,
        rollback_resistant=resistant,
        counter_writes_per_commit=_counter_writes_per_commit(protocol, f, seed),
        messages_per_commit=result.messages_sent / blocks,
        communication_steps=steps,
        reply_responsive=responsive,
    )


def measure_protocols(
    protocols: Sequence[str], f: int = 2, seed: int = 1
) -> list[ProtocolProfile]:
    """Measure several protocols' Table 1 rows, fanned over worker
    processes (:mod:`repro.harness.parallel`); results in input order."""
    return parallel_map(partial(measure_protocol, f=f, seed=seed), protocols)


def _counter_writes_per_commit(protocol: str, f: int, seed: int) -> float:
    """Re-run briefly with introspection to count counter writes."""
    spec = PROTOCOLS[protocol]
    if not spec.uses_counter:
        return 0.0
    config = protocol_config(spec, f, seed, counter_write_ms=1.0,
                             batch_size=50, payload_size=64)
    collector = MetricsCollector(warmup_ms=0.0)
    deployment = build_deployment(spec, config, LAN_PROFILE, seed,
                                  listener=collector)
    deployment.run(500.0)
    writes = 0
    for node in deployment.cluster.nodes:
        for component_name in ("checker", "proposer", "usig"):
            component = getattr(node, component_name, None)
            if component is not None and getattr(component, "counter", None) is not None:
                writes += component.counter.writes
    return writes / max(1, collector.blocks_committed)


def messages_linear_in_n(protocol: str, fs=(2, 4, 8), seed: int = 1) -> list[tuple[int, float]]:
    """Measure messages-per-commit at several committee sizes.

    For O(n) protocols the per-commit count grows linearly in n; for
    FlexiBFT it grows quadratically — the Table 1 complexity column,
    verified empirically in ``tests/integration/test_complexity.py``.
    """
    results = sweep("f", fs, protocols=(protocol,), network="LAN", seed=seed,
                    batch_size=50, payload_size=64, duration_ms=600.0,
                    warmup_ms=100.0)
    return [(r.n, r.messages_sent / max(1, r.blocks_committed)) for r in results]


__all__ = [
    "ProtocolProfile",
    "STATIC_FACTS",
    "measure_protocol",
    "measure_protocols",
    "messages_linear_in_n",
]
