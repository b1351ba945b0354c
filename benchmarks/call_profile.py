"""Where one ledger workload's host calls go (``make calls W=<workload>``).

    python3 benchmarks/call_profile.py lan_sat_n101 [--seed 1] [--smoke] [--of PATTERN] [--by-file] [--by-handler] [--under NAME[,NAME...]]

Prepares the workload exactly as ``benchmarks/perf/run.py`` counts it, runs
one rep under ``cProfile`` and prints the total call count (the ledger's
``host_mcalls`` x 1e6), ``sim.events``, calls per event, the top 40
functions by call count, and who calls the functions matching ``--of``.
``--by-file`` (``make calls W=... BY=file``) adds the calls summed per
source file, a C function's calls charged to the file that made them.
``--by-handler`` (``BY=handler``) runs the rep once more under a profile
hook and charges every call to the event callback it ran under (a message
delivery or dispatch also to the message's kind), with the callback's
fires and its calls per fire.  ``--under`` (``UNDER=``) runs it once more
and prints the inclusive calls under each named function (matched by name
or qualified name; the function's own call included), its share of the
row and its calls per outermost entry; it exits 1 if a named function was
never entered, so a renamed one does not silently profile nothing.
Never run seed 7 while developing a change: it is the ledger's hold-out.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import types

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


def _handler_key(frame) -> str:
    """What a frame called straight from the drain loop is charged to: its
    function, and for a message's delivery or dispatch the message kind,
    for a timer's fire the timer's name."""
    code = frame.f_code
    name = code.co_qualname
    if code.co_name in ("_deliver", "_dispatch"):
        envelope = frame.f_locals.get("envelope")
        if envelope is not None:
            name += f"[{type(envelope.payload).__name__}]"
    elif code.co_name == "_fire":
        label = getattr(frame.f_locals.get("self"), "_label", "")
        name += f"[{label.rpartition('.')[2]}]"
    return name


def calls_by_handler(run) -> "tuple[dict, dict]":
    """Run ``run()`` under a profile hook; returns ``(calls, fires)`` per
    handler key.  Counts the events cProfile counts — a Python call and a
    builtin's call — so the calls sum to the run's cProfile total, give or
    take the profiler's own enable/disable.  A call not made under an
    event callback is charged to ``(event loop)``."""
    from repro.sim.loop import Simulator

    drain = Simulator._drain.__code__
    builtin = types.BuiltinFunctionType
    calls: dict = {}
    fires: dict = {}
    loop = "(event loop)"
    root = [None, loop]  # the callback's frame, its key

    def hook(frame, event, arg):
        if event == "call":
            if root[0] is None and frame.f_back is not None \
                    and frame.f_back.f_code is drain:
                key = _handler_key(frame)
                root[0], root[1] = frame, key
                fires[key] = fires.get(key, 0) + 1
            key = root[1]
            calls[key] = calls.get(key, 0) + 1
        elif event == "c_call":
            if isinstance(arg, builtin):
                key = root[1]
                calls[key] = calls.get(key, 0) + 1
        elif event == "return" and frame is root[0]:
            root[0], root[1] = None, loop

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls, fires


def print_by_handler(calls: dict, fires: dict, total: int) -> None:
    counted = sum(calls.values())
    print(f"{counted} calls under the hook (cProfile: {total})")
    print(f"{'calls':>10}  {'share':>6}  {'fires':>8}  {'per fire':>8}  "
          f"handler (message kind, timer)")
    for key, count in sorted(calls.items(), key=lambda kv: (-kv[1], kv[0])):
        fired = fires.get(key, 0)
        per = f"{count / fired:.1f}" if fired else "-"
        print(f"{count:>10}  {count / counted:>6.1%}  {fired:>8}  "
              f"{per:>8}  {key}")


def calls_under(run, names) -> "tuple[dict, dict]":
    """Run ``run()`` under a profile hook; returns ``(calls, entries)`` per
    name in ``names``: every call (Python and builtin, as cProfile counts
    them) made while a function of that name is on the stack, its own
    call included, and how often it was entered from outside itself."""
    calls = {name: 0 for name in names}
    entries = dict(calls)
    outer: dict = {}  # name -> the frame of its outermost active call
    builtin = types.BuiltinFunctionType

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            for name in (code.co_name, code.co_qualname):
                if name in calls and name not in outer:
                    outer[name] = frame
                    entries[name] += 1
            for name in outer:
                calls[name] += 1
        elif event == "c_call":
            if isinstance(arg, builtin):
                for name in outer:
                    calls[name] += 1
        elif event == "return" and outer:
            for name in [n for n, f in outer.items() if f is frame]:
                del outer[name]

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls, entries


def print_under(calls: dict, entries: dict, total: int) -> None:
    print(f"{'calls':>10}  {'share':>6}  {'entries':>8}  {'per entry':>9}  "
          f"under (inclusive; cProfile total {total})")
    for name, count in calls.items():
        per = f"{count / entries[name]:.1f}" if entries[name] else "-"
        print(f"{count:>10}  {count / total:>6.1%}  {entries[name]:>8}  "
              f"{per:>9}  {name}")


def main() -> None:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--of", default=None, metavar="PATTERN")
    parser.add_argument("--by-file", action="store_true",
                        help="also print calls summed per source file")
    parser.add_argument("--by-handler", action="store_true",
                        help="also print calls per event callback and "
                             "message kind")
    parser.add_argument("--under", default=None, metavar="NAME[,NAME...]",
                        help="also print the inclusive calls under each "
                             "named function")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    # As run.py: first-use imports and caches are not part of a rep.
    workload.run(workload.prepare(args.seed, workloads.SMOKE_SCALE))
    scale = workloads.SMOKE_SCALE if args.smoke else 1.0
    state = workload.prepare(args.seed, scale)
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
    if args.by_handler:
        state = workload.prepare(args.seed, scale)
        print_by_handler(*calls_by_handler(lambda: workload.run(state)),
                         calls)
    if args.under:
        state = workload.prepare(args.seed, scale)
        names = [name for name in args.under.split(",") if name]
        under, entries = calls_under(lambda: workload.run(state), names)
        print_under(under, entries, calls)
        missing = [name for name in names if not entries[name]]
        if missing:
            sys.exit(f"error: --under names no function the rep entered: "
                     f"{', '.join(missing)}")


if __name__ == "__main__":
    main()
