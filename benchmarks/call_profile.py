"""Where one ledger workload's host calls go (``make calls W=<workload>``).

    python3 benchmarks/call_profile.py lan_sat_n101 [--seed 1] [--smoke] [--of PATTERN] [--by-file]

Prepares the workload exactly as ``benchmarks/perf/run.py`` counts it, runs
one rep under ``cProfile`` and prints the total call count (the ledger's
``host_mcalls`` x 1e6), ``sim.events``, calls per event, the top 40
functions by call count, and who calls the functions matching ``--of``.
``--by-file`` (``make calls W=... BY=file``) adds the calls summed per
source file, a C function's calls charged to the file that made them.
Never run seed 7 while developing a change: it is the ledger's hold-out.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"),
                os.path.join(ROOT, "benchmarks", "perf")]


def calls_by_file(profile: cProfile.Profile) -> "list[tuple[str, int]]":
    """Calls per source file, most first, summing to the run's total.  A
    Python function's calls go to its own file; a C function's to the
    file of each function that called it, and those with no recorded
    caller to ``~``."""
    totals: dict = {}
    uncharged: dict = {}
    for entry in profile.getstats():
        if isinstance(entry.code, str):  # a C function
            uncharged[entry.code] = uncharged.get(entry.code, 0) \
                + entry.callcount
            continue
        filename = entry.code.co_filename
        totals[filename] = totals.get(filename, 0) + entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                totals[filename] += sub.callcount
                uncharged[sub.code] = uncharged.get(sub.code, 0) \
                    - sub.callcount
    rest = sum(uncharged.values())
    if rest:
        totals["~"] = rest
    return sorted(totals.items(), key=lambda item: (-item[1], item[0]))


def print_by_file(profile: cProfile.Profile, total: int) -> None:
    print(f"{'calls':>10}  {'share':>6}  file (C calls charged to the caller)")
    for filename, calls in calls_by_file(profile):
        if filename.startswith(ROOT + os.sep):
            filename = os.path.relpath(filename, ROOT)
        print(f"{calls:>10}  {calls / total:>6.1%}  {filename}")


def main() -> None:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--of", default=None, metavar="PATTERN")
    parser.add_argument("--by-file", action="store_true",
                        help="also print calls summed per source file")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    # As run.py: first-use imports and caches are not part of a rep.
    workload.run(workload.prepare(args.seed, workloads.SMOKE_SCALE))
    state = workload.prepare(
        args.seed, workloads.SMOKE_SCALE if args.smoke else 1.0)
    profile = cProfile.Profile()
    profile.enable()
    outcome = workload.run(state)
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    events = outcome.counts["sim.events"]
    print(f"{args.workload} seed {args.seed}: {calls} calls, "
          f"{events} events, {calls / events:.1f} calls/event")
    stats = pstats.Stats(profile).sort_stats("ncalls")
    stats.print_stats(40)
    if args.of:
        stats.print_callers(args.of)
    if args.by_file:
        print_by_file(profile, calls)


if __name__ == "__main__":
    main()
