"""Determinism regression tests.

A run is a pure function of ``(config, seed)``: re-running an experiment
must reproduce every field of :class:`ExperimentResult` bit-for-bit, and
the parallel harness must return exactly what a sequential loop returns.
These tests are the contract that makes hot-path caching and the
multiprocessing fan-out safe — any nondeterminism (unseeded RNG, dict
ordering leaks, cache-order effects) shows up here first.
"""

from __future__ import annotations

import dataclasses

from repro.harness.parallel import run_experiments
from repro.harness.runner import run_experiment

_CONFIG = dict(
    protocol="achilles", f=1, network="LAN", batch_size=100,
    payload_size=64, duration_ms=400.0, warmup_ms=100.0, seed=3,
)

_SWEEP = [
    dict(protocol="achilles", f=1, network="LAN", batch_size=100,
         payload_size=64, duration_ms=400.0, warmup_ms=100.0, seed=3),
    dict(protocol="damysus-r", f=1, network="LAN", batch_size=100,
         payload_size=64, duration_ms=400.0, warmup_ms=100.0, seed=3),
    dict(protocol="flexibft", f=1, network="LAN", batch_size=100,
         payload_size=64, duration_ms=400.0, warmup_ms=100.0, seed=3,
         extras={"tag": "x"}),
]

_quiet = lambda line: None  # noqa: E731 — silence harness report in tests


def _snapshot(results):
    return [dataclasses.asdict(r) for r in results]


class TestDeterminism:
    def test_same_config_and_seed_is_bit_identical(self):
        first = run_experiment(**_CONFIG)
        second = run_experiment(**_CONFIG)
        # Every field, including simulated event and byte counts, must
        # match exactly — no approx comparisons.
        assert dataclasses.asdict(first) == dataclasses.asdict(second)
        assert first.sim_events == second.sim_events

    def test_different_seed_actually_changes_the_run(self):
        # Guards against the test above passing vacuously (e.g. metrics
        # pinned to constants): another seed must perturb *something*.
        base = run_experiment(**_CONFIG)
        other = run_experiment(**{**_CONFIG, "seed": 4})
        assert dataclasses.asdict(base) != dataclasses.asdict(other)

    def test_parallel_equals_sequential(self, monkeypatch):
        monkeypatch.setenv("REPRO_HARNESS_WORKERS", "1")
        sequential = run_experiments(_SWEEP, report=_quiet)
        monkeypatch.setenv("REPRO_HARNESS_WORKERS", "3")
        parallel = run_experiments(_SWEEP, report=_quiet)
        assert _snapshot(sequential) == _snapshot(parallel)
        # extras are stamped identically on both paths
        assert sequential[2].extras == parallel[2].extras == {"tag": "x"}

    def test_result_cache_round_trips_exactly(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HARNESS_WORKERS", "1")
        fresh = run_experiments(_SWEEP, cache_dir=tmp_path, report=_quiet)
        assert list(tmp_path.glob("*.json"))
        cached = run_experiments(_SWEEP, cache_dir=tmp_path, report=_quiet)
        # JSON round-trip (repr-based floats) must be bit-identical.
        assert _snapshot(fresh) == _snapshot(cached)

    def test_harness_matches_direct_run_experiment(self):
        direct = run_experiment(**_SWEEP[0])
        [via_harness] = run_experiments([_SWEEP[0]], report=_quiet)
        assert dataclasses.asdict(direct) == dataclasses.asdict(via_harness)
