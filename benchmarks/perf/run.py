"""The repository's performance benchmark: one command, two clocks.

Worker (what the driver calls; one workload, one process, one thread)::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric, each by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Ledger (no ``--trace``): runs every workload, or those named, each in a
fresh worker process, strictly one at a time, first untraced then traced,
and writes one JSON ledger::

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N] [--out FILE] [--smoke]

Metric names, units and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh-interpreter set-ups timed per run (the median is reported).
SETUP_REPS = 5
#: Timed reps a run makes at least, however short ``--seconds`` is.
MIN_REPS = 3


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def import_program():
    """Make ``repro`` and this directory importable; returns the
    workloads module.  Fails (exit code 2) where the program is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(f"benchmarks/perf: no program to measure: "
                         f"{src}/repro is missing\n")
        raise SystemExit(2)
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def quartiles(values) -> "tuple[float, float, float]":
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# Set-up time: fresh interpreter → imports → registry → built deployment
# ----------------------------------------------------------------------
def setup_only(args) -> None:
    workloads = import_program()
    workloads.WORKLOADS[args.workload[0]].prepare(
        args.seed, scale_of(args, workloads))


def measure_setup(args, reps: int) -> list:
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload[0], "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def scale_of(args, workloads) -> float:
    return workloads.SMOKE_SCALE if args.smoke else 1.0


# ----------------------------------------------------------------------
# Worker, untraced: the end-to-end metrics
# ----------------------------------------------------------------------
def check_rep(problems: list, reference, outcome, label: str) -> None:
    """Every rep must be safe and must repeat the reference exactly."""
    for violation in outcome.violations:
        problems.append(f"{label}: {violation}")
    if outcome.digest != reference.digest:
        moved = [k for k in reference.sim
                 if outcome.sim.get(k) != reference.sim[k]]
        problems.append(f"{label}: simulated outcome differs from the "
                        f"first rep (moved: {moved or 'chain tips/counts'})")


def count_calls(workload, seed: int, scale: float):
    """Python call + C call events of one full rep, and its outcome.  A
    count, not a time: it repeats exactly from process to process."""
    state = workload.prepare(seed, scale)
    profile = cProfile.Profile()
    profile.enable()
    outcome = workload.run(state)
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats()), outcome


def run_untraced(args, workloads) -> "tuple[dict, dict, object, list]":
    workload = workloads.WORKLOADS[args.workload[0]]
    scale = scale_of(args, workloads)
    problems: list = []
    setup_reps = 1 if args.smoke else SETUP_REPS
    min_reps = 1 if args.smoke else MIN_REPS

    # Untimed warm-up at smoke scale: lazy imports and caches, so that
    # neither the first rep nor the counted pass pays for first use.
    workload.run(workload.prepare(args.seed, workloads.SMOKE_SCALE))
    gc.collect()
    gc.freeze()

    # Timed reps, until they add up to --seconds.  The set-up timings and
    # the counted pass run between reps: interference on a shared box
    # comes in spells of 5-15 s, and spreading each kind of measurement
    # over the whole run keeps one spell from covering all of it.
    walls: list = []
    setups: list = []
    reference = calls = None
    while True:
        state = workload.prepare(args.seed, scale)
        gc.collect()
        start = time.perf_counter()
        outcome = workload.run(state)
        walls.append(time.perf_counter() - start)
        if reference is None:
            reference = outcome
        check_rep(problems, reference, outcome, f"rep {len(walls)}")
        del state, outcome
        done = len(walls) >= min_reps and \
            sum(walls) + min(walls) > args.seconds
        if len(setups) < setup_reps:
            setups += measure_setup(args, setup_reps - len(setups)
                                    if done else 1)
        if calls is None and (done or sum(walls) >= args.seconds / 2):
            calls, counted = count_calls(workload, args.seed, scale)
            check_rep(problems, reference, counted, "counted pass")
            del counted
        if done:
            break

    # Interference only ever slows a rep, so the first quartile of the
    # reps is the steadier estimate of what a rep costs; the median and
    # third quartile go to the ledger beside it.
    q1, median, q3 = quartiles(walls)
    values = dict(reference.sim)
    values.update({
        "setup_s": statistics.median(setups),
        "wall_s": q1,
        "host_mcalls": calls / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    detail = {
        "wall_s_reps": walls, "wall_s_median": median, "wall_s_q3": q3,
        "setup_s_reps": setups, "host_calls": calls,
        "digest": reference.digest, "notes": reference.notes,
    }
    return values, detail, reference, problems


# ----------------------------------------------------------------------
# Worker, traced: the per-layer metrics
# ----------------------------------------------------------------------
def run_traced(args, workloads) -> "tuple[dict, dict, object, list]":
    import layers
    import probes
    from repro.harness.runner import run_experiment

    workload = workloads.WORKLOADS[args.workload[0]]
    scale = scale_of(args, workloads)
    problems: list = []
    workload.run(workload.prepare(args.seed, workloads.SMOKE_SCALE))

    state = workload.prepare(args.seed, scale)
    start = time.perf_counter()
    reference = workload.run(state)
    untraced_wall = time.perf_counter() - start
    check_rep(problems, reference, reference, "untraced rep")

    # Host attribution: one more rep under the boundary tracer.
    tracer = layers.BoundaryTracer(layers.entry_points())
    state = workload.prepare(args.seed, scale)
    start = time.perf_counter()
    traced = tracer.run(lambda: workload.run(state))
    traced_wall = time.perf_counter() - start
    check_rep(problems, reference, traced, "traced rep")
    total = tracer.total_s
    values = dict(reference.sim)
    values.update(reference.counts)
    values["sim.events_per_s"] = \
        reference.counts.get("sim.events", 0) / untraced_wall
    for layer in layers.LAYERS:
        values[f"{layer}.self_s"] = tracer.self_s[layer]
        values[f"{layer}.share"] = tracer.self_s[layer] / total
        values[f"{layer}.entries"] = tracer.entries[layer]
    values.update(tracer.calls)
    values["trace.other_share"] = tracer.self_s[layers.OTHER] / total
    values["trace.overhead_x"] = traced_wall / untraced_wall

    # Simulated critical path, and parity of this benchmark's own cluster
    # assembly with run_experiment on the same configuration.
    if workload.obs_config is not None:
        config = workload.obs_config(args.seed, scale)
        start = time.perf_counter()
        plain = run_experiment(**config)
        plain_wall = time.perf_counter() - start
        start = time.perf_counter()
        walked = run_experiment(trace=True, **config)
        values["obs.overhead_x"] = (time.perf_counter() - start) / plain_wall
        for key, value in walked.extras.items():
            if key.startswith("cp_"):
                values[f"obs.{key}"] = value
        values["obs.trace_coverage"] = walked.extras["trace_coverage"]
        same = ("throughput_ktps", "commit_latency_ms",
                "commit_latency_p99_ms", "e2e_latency_ms", "sim_events")
        moved = [k for k in same if getattr(plain, k) != getattr(walked, k)]
        if moved:
            problems.append(f"repro.obs tracing moved {moved}")
        mine = (reference.sim["sim_tput_ktps"],
                reference.notes["commit_mean_ms"])
        theirs = (plain.throughput_ktps, plain.commit_latency_ms)
        if mine != theirs:
            problems.append(f"assembly differs from run_experiment: "
                            f"{mine} != {theirs}")
    if workload.parity is not None:
        mine, theirs = workload.parity(args.seed)
        if mine != theirs:
            problems.append(f"assembly differs from the public entry point "
                            f"it mirrors: {mine} != {theirs}")

    values.update(probes.run_probes())
    detail = {
        "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
        "edges": {f"{a}->{b}": n for (a, b), n
                  in sorted(tracer.edges.items())},
        "digest": reference.digest, "notes": reference.notes,
    }
    return values, detail, reference, problems


def worker(args) -> int:
    workloads = import_program()  # first: fail before measuring, if absent
    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    runner = run_traced if args.trace else run_untraced
    values, detail, reference, problems = runner(args, workloads)

    metrics = {}
    for entry in declared:
        # A metric a row does not define (a fault-free row's outage, a
        # single-group row's abort ratio) reads 0.
        value = values.get(entry["name"], 0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload[0]:18s} {entry['name']:38s} "
              f"{value:16.6f} {entry['unit']}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    if args.detail:
        detail["undeclared"] = {k: v for k, v in values.items()
                                if k not in metrics}
        detail["problems"] = problems
        print("DETAIL " + json.dumps(detail))
    print(json.dumps({"correct": not problems,
                      "attempted": max(1, reference.attempted),
                      "failed": reference.failed, "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------
# Ledger: every workload, one worker at a time
# ----------------------------------------------------------------------
def run_worker(name: str, args, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--detail"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"worker {name} --trace {trace} failed "
                         f"(exit {done.returncode})")
    for line in lines[:-2]:
        print(line)
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("DETAIL "):])
    return result


def ledger(args) -> int:
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    rows = {}
    for name in names:
        passes = {"end_to_end": run_worker(name, args, 0)}
        if not args.smoke:
            passes["per_layer"] = run_worker(name, args, 1)
        rows[name] = passes
    correct = all(p["correct"] for row in rows.values() for p in row.values())
    document = {
        "schema": 1, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "python": platform.python_version(),
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "correct": correct, "workloads": rows,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"ledger written to {args.out}")
    print(json.dumps({"correct": correct, "workloads": sorted(rows)}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", default=[])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", default=None, help="ledger file to write")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the simulated duration, one rep")
    parser.add_argument("--detail", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # A fixed string-hash seed, so that set and dict orders, and with them
    # the counted calls, repeat from process to process.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)

    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(load_spec()["run_seconds"])
    if args.setup_only:
        setup_only(args)
        return 0
    if args.trace is None:
        return ledger(args)
    if len(args.workload) != 1:
        parser.error("a worker takes exactly one --workload")
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
