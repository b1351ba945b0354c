"""Self-test of the benchmark's own code (plain ``python3``, no new deps).

    python3 benchmarks/perf/selftest.py [--no-smoke]

Checks ``BENCHMARK.json`` against the benchmark contract, the frame →
layer mapping, ``compare.py`` on an identical and on a worsened pair, and
that ``run.py --smoke`` emits exactly the workload and metric names
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def check(condition, message) -> None:
    if not condition:
        raise AssertionError(message)


def test_spec(spec) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    check(len(names) == len(set(names)), "a name is used once")
    check(all(NAME.match(n) for n in names), "name shape")
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"}, "workload keys")
        check(len(workload["why"]) <= 200 and "\n" not in workload["why"],
              "why is one line of at most 200 characters")
    for entry in spec["end_to_end"]:
        check(set(entry) == {"name", "unit", "better", "bound"}, "e2e keys")
        check(0 < entry["bound"] <= 0.25, f"bound of {entry['name']}")
    for entry in spec["per_layer"]:
        check(set(entry) == {"name", "unit", "better"}, "per-layer keys")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(entry["unit"]), f"unit of {entry['name']}")
        check(entry["better"] in ("lower", "higher"), "better")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower", "setup_s")
    check(len(json.dumps(spec)) <= 64 * 1024, "at most 64 KiB")
    for layer in layers.LAYERS:
        for suffix in ("self_s", "share", "entries"):
            check(f"{layer}.{suffix}" in names, f"{layer}.{suffix} declared")


def test_layer_mapping() -> None:
    of = layers.layer_of_file
    check(of("/x/src/repro/net/network.py") == "net", "net")
    check(of("/x/src/repro/net/transport.py") == "net.transport",
          "net.transport is its own layer")
    check(of("/x/src/repro/harness/metrics.py") == "harness.metrics", "h.m")
    check(of("/x/src/repro/harness/invariants.py") == "harness.invariants",
          "h.i")
    check(of("/x/src/repro/harness/soak.py") == "harness.soak", "h.s")
    check(of("/x/src/repro/harness/runner.py") == layers.OTHER,
          "the rest of harness is no layer")
    check(of("/x/src/repro/baselines/damysus/node.py") == "baselines",
          "sub-packages belong to their package")
    check(of("/x/src/repro/errors.py") == layers.OTHER, "top-level module")
    check(of(os.path.join(HERE, "run.py")) == layers.OTHER, "own files")
    check(of("/usr/lib/python3.11/json/encoder.py") is None,
          "stdlib belongs to its caller")
    check(of("<frozen importlib._bootstrap>") is None, "frozen modules")

    # Stdlib time is charged to the caller: this file is `other`, so a
    # traced call into json must leave every real layer at zero.
    tracer = layers.BoundaryTracer({})
    tracer.run(lambda: json.dumps({"k": list(range(2000))}))
    check(tracer.self_s[layers.OTHER] > 0, "caller is charged")
    check(all(tracer.self_s[l] == 0 for l in layers.LAYERS),
          "no layer is charged for stdlib work")


def synthetic_ledger(spec) -> dict:
    def metrics(entries, value):
        return {e["name"]: {"value": value, "unit": e["unit"]}
                for e in entries}
    rows = {}
    for workload in spec["workloads"]:
        rows[workload["name"]] = {
            "end_to_end": {
                "correct": True, "attempted": 100, "failed": 0,
                "metrics": metrics(spec["end_to_end"], 10.0),
                "detail": {"wall_s_reps": [10.0, 10.01, 9.99, 10.02],
                           "setup_s_reps": [10.0, 10.1, 9.9]}},
            "per_layer": {
                "correct": True, "attempted": 100, "failed": 0,
                "metrics": metrics(spec["per_layer"], 1.0), "detail": {}},
        }
    return {"schema": 1, "seed": 1, "correct": True, "workloads": rows}


def test_compare(spec) -> None:
    a = synthetic_ledger(spec)
    rows, failures = compare.compare(a, copy.deepcopy(a), spec, exact=True)
    check(not failures, f"identical pair must pass: {failures}")
    check(all(row[-1] == "unchanged" for row in rows), "all unchanged")

    first = spec["workloads"][0]["name"]
    b = copy.deepcopy(a)
    e2e = b["workloads"][first]["end_to_end"]
    e2e["metrics"]["wall_s"]["value"] *= 1.20
    e2e["detail"]["wall_s_reps"] = [
        v * 1.20 for v in e2e["detail"]["wall_s_reps"]]
    e2e["metrics"]["sim_tput_ktps"]["value"] *= 0.95
    rows, failures = compare.compare(a, b, spec, exact=True)
    worse = {(r[0], r[1]) for r in rows if r[-1] == "worse"}
    check(worse == {(first, "wall_s"), (first, "sim_tput_ktps")},
          f"+20% wall_s and -5% sim_tput_ktps must both fail: {worse}")
    check(failures, "a worse row fails the comparison")

    noisy = copy.deepcopy(a)
    noisy["workloads"][first]["end_to_end"]["detail"]["wall_s_reps"] = \
        [6.0, 10.0, 14.0, 18.0]
    rows, _ = compare.compare(a, noisy, spec)
    check(("unresolved" in {r[-1] for r in rows if r[1] == "wall_s"}),
          "a spread wider than the bound is unresolved, not unchanged")

    risen = copy.deepcopy(a)
    risen["workloads"][first]["per_layer"]["metrics"][
        "failed_ops_ratio"]["value"] += 0.0001
    _, failures = compare.compare(a, risen, spec)
    check(failures, "any rise in failed_ops_ratio fails")


def test_smoke(spec) -> None:
    """Every workload at a tenth of its duration, under a minute."""
    run = [sys.executable, os.path.join(HERE, "run.py")]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "smoke.json")
        subprocess.run(run + ["--smoke", "--out", out], check=True,
                       stdout=subprocess.DEVNULL)
        with open(out, encoding="utf-8") as handle:
            ledger = json.load(handle)
    elapsed = time.perf_counter() - started
    check(ledger["correct"], "smoke ledger is correct")
    declared = [w["name"] for w in spec["workloads"]]
    check(sorted(ledger["workloads"]) == sorted(declared), "workload names")
    e2e_names = {e["name"] for e in spec["end_to_end"]}
    for name, row in ledger["workloads"].items():
        check(set(row["end_to_end"]["metrics"]) == e2e_names,
              f"{name}: end-to-end metric names")
    check(elapsed < 60.0, f"smoke took {elapsed:.1f} s, wants < 60 s")

    done = subprocess.run(
        run + ["--smoke", "--workload", "counter_r_f10", "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(result["correct"], "traced smoke worker is correct")
    check(set(result["metrics"]) == {e["name"] for e in spec["per_layer"]},
          "per-layer metric names")
    print(f"smoke: 8 workloads in {elapsed:.1f} s")


def main() -> int:
    with open(compare.SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    test_spec(spec)
    test_layer_mapping()
    test_compare(spec)
    if "--no-smoke" not in sys.argv[1:]:
        test_smoke(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
