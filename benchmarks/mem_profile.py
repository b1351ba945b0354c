"""Where one ledger workload's live memory goes (``make mem W=<workload>``).

    python3 benchmarks/mem_profile.py wan_open_f10 [--seed 1] [--smoke] [--top 25] [--by-file]

The memory twin of ``call_profile.py``.  Prepares the workload exactly as
``benchmarks/perf/run.py`` runs it, runs one rep (set-up included) under
``tracemalloc`` and
prints, at the end of the rep, the traced memory still live and its peak
during the rep, the process's ``ru_maxrss`` (the ledger's ``peak_rss_mb``
is the same figure in its own worker), the live bytes per committed
transaction (what a run keeps per transaction, stores included, plus
what it keeps regardless, spread over them), and the allocation sites holding
the most live memory: by source line, and with ``--by-file``
(``make mem W=... BY=file``) summed per source file.

Every simulator the rep makes is kept alive to the end, so what its
cluster reaches is still live when the snapshot is taken even on rows
whose run drops its cluster (soak, shard, power-cut).  A row that runs
several simulators (power-cut's replays, the WAN ladder's rungs) shows
their sum, which can be more than its peak.  Byte counts repeat from run
to run on one interpreter; they are not scaled to the ledger's RSS, which
also holds the interpreter and what the warm-up left behind.
Never run seed 7 while developing a change: it is the ledger's hold-out.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"),
                os.path.join(ROOT, "benchmarks", "perf")]

MB = 1024.0 * 1024.0


def keep_simulators() -> list:
    """Make every ``Simulator`` built from now on stay alive in the
    returned list."""
    from repro.sim.loop import Simulator

    kept: list = []
    build = Simulator.__init__

    def init(self, *args, **kwargs) -> None:
        build(self, *args, **kwargs)
        kept.append(self)

    Simulator.__init__ = init
    return kept


def short(filename: str) -> str:
    """``filename`` relative to the checkout, if it is in it."""
    return os.path.relpath(filename, ROOT) \
        if filename.startswith(ROOT) else filename


def print_sites(snapshot: tracemalloc.Snapshot, key: str, top: int,
                total: int) -> None:
    stats = snapshot.statistics(key)
    print(f"\n{'KiB':>10}  {'share':>6}  {'blocks':>8}  {'B/block':>7}  "
          f"top {top} by {key}")
    for stat in stats[:top]:
        frame = stat.traceback[0]
        where = short(frame.filename) + (
            f":{frame.lineno}" if key == "lineno" else "")
        print(f"{stat.size / 1024.0:>10.1f}  {stat.size / total:>6.1%}  "
              f"{stat.count:>8}  {stat.size // max(stat.count, 1):>7}  "
              f"{where}")


def committed_txs(counts: dict) -> int:
    """Transactions the rep committed, from its ledger counts."""
    if "chain.txs_per_block" in counts:
        return round(counts["chain.txs_per_block"]
                     * counts["consensus.blocks_committed"])
    return counts["client.acked"]


def main() -> None:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--by-file", action="store_true",
                        help="also print live memory summed per source file")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    # As run.py: first-use imports and caches are not part of a rep.
    workload.run(workload.prepare(args.seed, workloads.SMOKE_SCALE))
    scale = workloads.SMOKE_SCALE if args.smoke else 1.0
    kept = keep_simulators()
    gc.collect()
    tracemalloc.start()
    outcome = workload.run(workload.prepare(args.seed, scale))
    gc.collect()
    live, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)])
    tracemalloc.stop()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload} seed {args.seed}: {live / MB:.1f} MB live at "
          f"the end of the rep, {peak / MB:.1f} MB traced peak, "
          f"{rss:.1f} MB ru_maxrss (tracemalloc's own included); "
          f"{len(kept)} simulator(s) kept, "
          f"{outcome.counts['sim.events']} events")
    committed = committed_txs(outcome.counts)
    print(f"{live / max(1, committed):.1f} B live per committed transaction "
          f"({committed} committed)")
    print_sites(snapshot, "lineno", args.top, live)
    if args.by_file:
        print_sites(snapshot, "filename", args.top, live)


if __name__ == "__main__":
    main()
