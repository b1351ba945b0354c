"""Compare two ledgers written by ``run.py --out``: A is the parent, B the change.

    python3 benchmarks/perf/compare.py A.json B.json [--exact] [--layers]

One row per (workload, end-to-end metric): *better*, *unchanged*, *worse*,
or *unresolved* when the reps' own quartile spread is wider than the
bound, so that no verdict can be given.  The bounds fixed in
``BENCHMARK.json`` have to cover the spread between *seeds* (the driver
measures them that way); two ledgers of one seed differ by far less, so
they are judged with the tighter same-seed bounds below.  The metrics
only some rows define (outage, recovery, commit latency, highest rate,
the two ratios) are judged with the bounds below as well.  ``--exact`` is
for two ledgers of one seed where the simulated system should not have
changed: any difference in a ``sim_*`` metric or in ``host_mcalls`` is
then *worse*.  ``--layers`` also lists every per-layer metric that moved,
without a verdict.

Exit code 1 on any *worse*, on any rise in ``failed_ops_ratio`` or in
failed operations, and on a ledger whose own checks failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")

#: Metrics only some rows define, reported by the traced pass: allowed
#: worsening as a share of A, or as an absolute step where A can be 0.
WHERE_DEFINED = {
    "sim_commit_p50_ms": ("lower", 0.01, "rel"),
    "sim_commit_p99_ms": ("lower", 0.01, "rel"),
    "sim_outage_ms": ("lower", 0.01, "rel"),
    "sim_recovery_ms": ("lower", 0.01, "rel"),
    "sim_max_rate_ktps": ("higher", 0.0, "abs"),   # one rung = any drop
    "slo_miss_ratio": ("lower", 0.005, "abs"),
    "failed_ops_ratio": ("lower", 0.0, "abs"),     # any rise
}
#: Bounds for two ledgers of one seed (ISSUE 11's): simulated metrics and
#: the call count repeat exactly there, so 1 % is already a real change.
SAME_SEED = {"setup_s": 0.25, "wall_s": 0.15, "host_mcalls": 0.01,
             "peak_rss_mb": 0.05}
SAME_SEED_SIM = 0.01
#: Host metrics with reps in the ledger's detail: name → detail key.
REPS = {"wall_s": "wall_s_reps", "setup_s": "setup_s_reps"}


def is_exact(name: str) -> bool:
    """End-to-end metrics that repeat exactly for a fixed (workload,
    seed)."""
    return name.startswith("sim_") or name == "host_mcalls"


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    if not values or len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(a: float, b: float, better: str, kind: str = "rel") -> float:
    """How much worse B is than A (negative = better)."""
    step = (b - a) if better == "lower" else (a - b)
    if kind == "abs":
        return step
    return step / abs(a) if a else (0.0 if not step else float("inf"))


def judge(a, b, better, bound, kind="rel", exact=False, noise=0.0) -> str:
    if exact:
        return "unchanged" if a == b else "worse"
    if noise > bound:
        return "unresolved"
    worse_by = worsening(a, b, better, kind)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound or (bound == 0.0 and worse_by < 0):
        return "better"
    return "unchanged"


def compare(doc_a: dict, doc_b: dict, spec: dict, exact: bool = False,
            layers: bool = False) -> "tuple[list, list]":
    """Rows ``(workload, metric, a, b, unit, verdict)`` and the reasons
    to fail, for every workload both ledgers hold."""
    rows, failures = [], []
    same_seed = doc_a.get("seed") == doc_b.get("seed")
    if exact and not same_seed:
        failures.append("--exact needs two ledgers of one seed")
    for label, doc in (("A", doc_a), ("B", doc_b)):
        if not doc.get("correct", False):
            failures.append(f"ledger {label} failed its own checks")
    for name in [w["name"] for w in spec["workloads"]]:
        row_a = doc_a["workloads"].get(name)
        row_b = doc_b["workloads"].get(name)
        if row_a is None or row_b is None:
            continue
        e2e_a, e2e_b = row_a["end_to_end"], row_b["end_to_end"]
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            a = e2e_a["metrics"][metric]["value"]
            b = e2e_b["metrics"][metric]["value"]
            noise = 0.0
            if metric in REPS:
                noise = max(spread(e2e_a["detail"].get(REPS[metric])),
                            spread(e2e_b["detail"].get(REPS[metric])))
            bound = entry["bound"]
            if same_seed:
                bound = min(bound, SAME_SEED.get(metric, SAME_SEED_SIM))
            verdict = judge(a, b, entry["better"], bound,
                            exact=exact and is_exact(metric), noise=noise)
            rows.append((name, metric, a, b, entry["unit"], verdict))
        if e2e_b["failed"] > e2e_a["failed"]:
            failures.append(f"{name}: failed operations rose "
                            f"{e2e_a['failed']} -> {e2e_b['failed']}")
        layer_a, layer_b = row_a.get("per_layer"), row_b.get("per_layer")
        if layer_a is None or layer_b is None:
            continue
        for entry in spec["per_layer"]:
            metric = entry["name"]
            a = layer_a["metrics"][metric]["value"]
            b = layer_b["metrics"][metric]["value"]
            if metric in WHERE_DEFINED:
                better, bound, kind = WHERE_DEFINED[metric]
                verdict = judge(a, b, better, bound, kind, exact=exact)
                rows.append((name, metric, a, b, entry["unit"], verdict))
            elif layers and a != b:
                rows.append((name, metric, a, b, entry["unit"], "-"))
    for name, metric, a, b, _unit, verdict in rows:
        if verdict == "worse":
            failures.append(f"{name}: {metric} worse ({a:.6g} -> {b:.6g})")
    return rows, failures


def render(rows) -> str:
    lines = [f"{'workload':18s} {'metric':34s} {'A':>14s} {'B':>14s} "
             f"{'unit':7s} {'change':>8s}  verdict"]
    for name, metric, a, b, unit, verdict in rows:
        change = f"{100.0 * (b - a) / a:+7.2f}%" if a else "     n/a"
        lines.append(f"{name:18s} {metric:34s} {a:14.6g} {b:14.6g} "
                     f"{unit:7s} {change}  {verdict}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--exact", action="store_true")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.a, args.b, SPEC_PATH):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows, failures = compare(*documents, exact=args.exact, layers=args.layers)
    print(render(rows))
    verdicts = [row[-1] for row in rows]
    print(f"\n{verdicts.count('better')} better, "
          f"{verdicts.count('unchanged')} unchanged, "
          f"{verdicts.count('worse')} worse, "
          f"{verdicts.count('unresolved')} unresolved")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
