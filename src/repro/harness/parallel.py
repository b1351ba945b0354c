"""Parallel experiment harness.

Every experiment and campaign in this repository is a pure function of
its configuration: :func:`repro.harness.runner.run_experiment` and the
campaign runners seed all randomness from ``(config, seed)`` and touch no
global state, so a batch can be fanned out over a :mod:`multiprocessing`
pool and the results are bit-identical to running them sequentially.

:func:`run_experiments` is the batch front end used by the figure/table
sweeps in :mod:`repro.harness.experiments`, the CLI and the benchmarks.
A config is the runner's keyword arguments: ``run_experiment``'s fields,
or ``{"spec": spec, "seed": seed}`` for every campaign kind.  It adds two
orthogonal conveniences:

* **Fan-out** — configs run :func:`default_workers` at a time (the CPU
  count, or ``REPRO_HARNESS_WORKERS``; ``1`` forces the plain sequential
  loop with no pool at all).
* **Result cache** — with ``cache_dir`` (or ``REPRO_RESULT_CACHE``) set,
  each result is stored as JSON keyed by a digest of the runner and its
  configuration, and rebuilt by :func:`repro.harness.runner.from_json`
  (nested records included) on the next identical request.  Python's
  ``repr``-based float serialization round-trips exactly, so a cached
  result equals a fresh run.  The cache does **not** observe code
  changes — wipe the directory after touching the simulator.

Per-experiment wall-clock and simulated-events-per-second lines are
reported through the ``report`` callback (default: stderr), keeping
observability out of the result records.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import pathlib
import time
from typing import Callable, Mapping, Optional, Sequence, TypeVar

from repro.crypto.hashing import digest_of
from repro.harness.runner import ExperimentResult, from_json, run_experiment

T = TypeVar("T")
R = TypeVar("R")

#: Bump when any cached result dataclass's schema changes, to orphan stale
#: cache files.  2: cache keys carry the runner name (chaos campaigns and
#: throughput experiments share the cache directory).  3: campaign
#: configs are ``{"spec", "seed"}`` and results extend ``CampaignResult``.
_CACHE_SCHEMA = 3


def default_workers() -> int:
    """Worker-count default: ``REPRO_HARNESS_WORKERS`` or the CPU count."""
    env = os.environ.get("REPRO_HARNESS_WORKERS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_HARNESS_WORKERS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def _default_report(line: str) -> None:
    import sys

    print(line, file=sys.stderr, flush=True)


def config_key(config: Mapping, runner_name: str = "run_experiment") -> str:
    """Stable digest identifying one experiment configuration.

    Uses the repo's canonical encoding, so nested dicts/tuples (e.g.
    ``config_overrides``) hash deterministically regardless of insertion
    order.  The ``extras`` entry is excluded: it only annotates the result
    and never influences the simulation.  ``runner_name`` keeps results of
    different runners (throughput vs chaos) from colliding in one cache.
    """
    kwargs = {k: v for k, v in config.items() if k != "extras"}
    return digest_of("experiment-cache", _CACHE_SCHEMA, runner_name, kwargs)


def _run_kwargs(config: Mapping, runner: Callable) -> tuple:
    """Worker body: run one config, measuring wall-clock (module-level so
    it pickles into pool workers via ``functools.partial``)."""
    kwargs = {k: v for k, v in config.items() if k != "extras"}
    start = time.perf_counter()
    result = runner(**kwargs)
    return result, time.perf_counter() - start


def _cache_path(cache_dir: pathlib.Path, key: str) -> pathlib.Path:
    return cache_dir / f"{key}.json"


def _cache_load(cache_dir: pathlib.Path, key: str,
                result_type: type = ExperimentResult) -> Optional[object]:
    path = _cache_path(cache_dir, key)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    try:
        return from_json(result_type, data)
    except TypeError:
        return None  # stale schema: treat as a miss, will be overwritten


def _cache_store(cache_dir: pathlib.Path, key: str, result: object) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_path(cache_dir, key)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(dataclasses.asdict(result)))
    tmp.replace(path)  # atomic on POSIX: concurrent writers both win


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Order-preserving map over a process pool.

    ``fn`` must be picklable (module-level function or ``functools.partial``
    of one).  With one worker or one item this is a plain loop — no pool,
    no pickling — which also keeps single-CPU machines and debuggers happy.
    """
    items = list(items)
    workers = min(default_workers(), len(items))
    if workers <= 1 or multiprocessing.current_process().daemon:
        # Pool workers are daemonic and cannot spawn children; a nested
        # parallel_map degrades to the sequential loop instead of raising.
        return [fn(item) for item in items]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(fn, items, chunksize=1)


def run_experiments(
    configs: Sequence[Mapping],
    *,
    cache_dir: Optional[os.PathLike | str] = None,
    report: Optional[Callable[[str], None]] = None,
    runner: Callable = run_experiment,
    result_type: type = ExperimentResult,
) -> list:
    """Run a batch of configs; results in input order.

    Each config is a mapping of ``runner`` keyword arguments (a campaign's
    is ``{"spec": spec, "seed": seed}``), plus an optional ``"extras"``
    dict merged into ``result.extras`` after the run (used by the Fig. 4/5
    sweeps to tag rows with the swept variable).  Results are
    bit-identical to calling ``runner`` sequentially yourself — fan-out
    and caching change wall-clock only.

    ``runner`` must be a module-level callable (it is pickled into pool
    workers) returning a ``result_type`` record:
    :class:`~repro.harness.runner.ExperimentResult` or a
    :class:`~repro.harness.runner.CampaignResult` subclass.

    ``cache_dir`` (or the ``REPRO_RESULT_CACHE`` environment variable)
    enables the on-disk result cache.  ``report`` receives one line per
    experiment with wall-clock and simulated events/sec (default: stderr).
    """
    configs = [dict(c) for c in configs]
    emit = _default_report if report is None else report
    runner_name = getattr(runner, "__name__", repr(runner))

    cache: Optional[pathlib.Path] = None
    raw_dir = cache_dir if cache_dir is not None else os.environ.get("REPRO_RESULT_CACHE")
    if raw_dir:
        cache = pathlib.Path(raw_dir)

    results: list = [None] * len(configs)
    walls: list[Optional[float]] = [None] * len(configs)
    pending: list[int] = []

    if cache is not None:
        keys = [config_key(c, runner_name) for c in configs]
        for i, key in enumerate(keys):
            hit = _cache_load(cache, key, result_type)
            if hit is not None:
                results[i] = hit
            else:
                pending.append(i)
    else:
        keys = []
        pending = list(range(len(configs)))

    batch_start = time.perf_counter()
    if pending:
        body = functools.partial(_run_kwargs, runner=runner)
        fresh = parallel_map(body, [configs[i] for i in pending])
        for i, (result, wall) in zip(pending, fresh):
            results[i] = result
            walls[i] = wall
            if cache is not None:
                _cache_store(cache, keys[i], result)
    batch_wall = time.perf_counter() - batch_start

    total_events = 0
    for i, (config, result) in enumerate(zip(configs, results)):
        assert result is not None
        extras = config.get("extras")
        if extras:
            result.extras.update(extras)
        total_events += result.sim_events
        duration = getattr(config.get("spec"), "duration_ms",
                           config.get("duration_ms", 1500.0))
        label = (f"{result.protocol} f={result.f} n={result.n} "
                 f"{result.network} {duration:g}ms")
        wall = walls[i]
        if wall is None:
            emit(f"[harness] {label}: cached ({result.sim_events} sim events)")
        else:
            rate = result.sim_events / wall if wall > 0 else float("inf")
            emit(f"[harness] {label}: wall {wall:.2f}s, "
                 f"{result.sim_events} sim events, {rate:,.0f} events/s")
    if len(configs) > 1:
        if pending:
            rate = total_events / batch_wall if batch_wall > 0 else float("inf")
            emit(f"[harness] batch: {len(configs)} experiments "
                 f"({len(configs) - len(pending)} cached) in {batch_wall:.2f}s "
                 f"wall, {total_events} sim events, {rate:,.0f} events/s")
        else:
            emit(f"[harness] batch: {len(configs)} experiments, all cached "
                 f"({total_events} sim events)")
    return results  # type: ignore[return-value]


__all__ = [
    "config_key",
    "default_workers",
    "parallel_map",
    "run_experiments",
]
