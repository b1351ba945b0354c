"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — one experiment (protocol × f × network × workload), printing
  the paper's three metrics.
* ``compare`` — several protocols side by side on one configuration.
* ``trace`` — traced runs of the Fig. 3 protocol set: critical-path cost
  breakdown per protocol + Perfetto JSON files (open in ui.perfetto.dev).
* ``recovery`` — the Table 2 recovery-overhead breakdown.
* ``counters`` — the Table 4 persistent-counter latencies.
* ``chaos`` — seeded chaos campaigns (crashes + rollbacks + partitions +
  churn + lossy fabrics + Byzantine replicas via ``--byz``) under the
  always-on invariant monitors; the first failing seed is re-run with
  span tracing and dumped as a Perfetto trace.  ``--byz-expect`` flips
  named invariants into negative controls (they must demonstrably trip).
* ``shard`` — throughput-vs-shard-count sweep over a sharded deployment
  (S consensus groups + client router + cross-shard 2PC), each point
  audited against ``cross-shard-atomicity``.
* ``shard-chaos`` — crash or client-partition a *whole shard* mid-2PC
  and audit convergence to abort; ``--no-ttl --expect
  cross-shard-atomicity`` is the canonical negative control.
* ``protocols`` — list everything the registry knows.

All output is plain text (the same tables the benchmarks record).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
import typing
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.harness.report import format_table


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--f", type=int, default=2, dest="faults",
                        help="fault threshold f (committee is 2f+1 or 3f+1)")
    parser.add_argument("--network", choices=["LAN", "WAN"], default="LAN")
    parser.add_argument("--batch", type=int, default=400,
                        help="transactions per block")
    parser.add_argument("--payload", type=int, default=256,
                        help="payload bytes per transaction")
    parser.add_argument("--counter-write-ms", type=float, default=20.0,
                        help="persistent-counter write latency for -R variants")
    parser.add_argument("--duration", type=float, default=1500.0,
                        help="measured window (simulated ms)")
    parser.add_argument("--warmup", type=float, default=300.0,
                        help="warmup excluded from metrics (simulated ms)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rate", type=float, default=None,
                        help="open-loop offered load in TPS (default: saturated)")


def _experiment_config(args: argparse.Namespace, protocol: str) -> dict:
    """The ``run_experiment`` arguments of one workload-shaped invocation."""
    return dict(
        protocol=protocol, f=args.faults, network=args.network,
        batch_size=args.batch, payload_size=args.payload,
        counter_write_ms=args.counter_write_ms,
        duration_ms=args.duration, warmup_ms=args.warmup, seed=args.seed,
        offered_load_tps=args.rate,
    )


def _result_row(result) -> list:
    return [result.protocol, result.f, result.n, result.network,
            round(result.throughput_ktps, 2),
            round(result.commit_latency_ms, 2),
            round(result.e2e_latency_ms, 2),
            result.blocks_committed]


_RESULT_HEADERS = ["protocol", "f", "n", "net", "tput (KTPS)",
                   "commit (ms)", "e2e (ms)", "blocks"]


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment."""
    from repro.harness.runner import run_experiment

    result = run_experiment(**_experiment_config(args, args.protocol))
    print(format_table(_RESULT_HEADERS, [_result_row(result)],
                       title=f"{args.protocol} — single experiment"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run several protocols on the same configuration.

    Protocols fan out over worker processes (``REPRO_HARNESS_WORKERS``
    controls the width); per-experiment wall-clock/events-per-second
    lines go to stderr so the stdout table stays clean.
    """
    from repro.harness.parallel import run_experiments

    results = run_experiments([_experiment_config(args, protocol)
                               for protocol in args.protocols])
    rows = [_result_row(result) for result in results]
    print(format_table(
        _RESULT_HEADERS, rows,
        title=f"comparison — {args.network}, f={args.faults}, "
              f"batch {args.batch} × {args.payload} B",
    ))
    return 0


#: Named ``repro trace`` experiments → network profile.
_TRACE_EXPERIMENTS = {"fig3-lan": "LAN", "fig3-wan": "WAN"}


def cmd_trace(args: argparse.Namespace) -> int:
    """Traced runs + critical-path cost breakdown (paper Sec. 5 / Table 4).

    Runs the Fig. 3 protocol set with span tracing on, prints where each
    protocol's mean commit latency goes (persistent-counter writes,
    network flight, crypto, ECALL transitions, queueing, compute), and
    writes one Perfetto/Chrome trace JSON per protocol into ``--out-dir``
    (load them at https://ui.perfetto.dev).  ``--assert-coverage`` fails
    the command when the walk attributes less than 95% of the measured
    commit latency — the CI smoke check.
    """
    import pathlib

    from repro.harness.experiments import FIG3_PROTOCOLS, cost_breakdown_sweep
    from repro.obs.critical_path import BUCKETS
    from repro.obs.perfetto import validate_trace

    network = _TRACE_EXPERIMENTS[args.experiment]
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = cost_breakdown_sweep(
        network=network, protocols=args.protocols or FIG3_PROTOCOLS,
        f=args.faults, counter_write_ms=args.counter_write_ms,
        seed=args.seed, trace_dir=str(out_dir),
    )

    rows = []
    failures: list[str] = []
    for result in results:
        extras = result.extras
        coverage = extras.get("trace_coverage", 0.0)
        rows.append(
            [result.protocol, round(result.commit_latency_ms, 3)]
            + [round(extras.get(f"cp_{bucket}_ms", 0.0), 3)
               for bucket in BUCKETS]
            + [f"{coverage:.1%}"]
        )
        if coverage < args.min_coverage:
            failures.append(
                f"{result.protocol}: critical-path walk attributed only "
                f"{coverage:.1%} of mean commit latency "
                f"(need >= {args.min_coverage:.0%})"
            )
    print(format_table(
        ["protocol", "commit (ms)"] + [f"{b} (ms)" for b in BUCKETS]
        + ["coverage"],
        rows,
        title=f"critical-path cost breakdown — {network}, f={args.faults}, "
              f"counter write {args.counter_write_ms:g} ms",
    ))

    schema_problems: list[str] = []
    for path in sorted(out_dir.glob("*.json")):
        problems = validate_trace(path)
        if problems:
            schema_problems.extend(f"{path}: {p}" for p in problems[:5])
        else:
            print(f"wrote {path} (valid Perfetto trace)")
    print("open the JSON files at https://ui.perfetto.dev")

    if not args.assert_coverage:
        failures = []
    for failure in failures + schema_problems:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if (failures or schema_problems) else 0


def cmd_recovery(args: argparse.Namespace) -> int:
    """Reproduce the Table 2 recovery breakdown."""
    from repro.harness.experiments import table2_recovery_breakdown

    rows = table2_recovery_breakdown(node_counts=tuple(args.nodes))
    print(format_table(
        ["nodes", "initialization (ms)", "recovery (ms)", "total (ms)"],
        [[r["nodes"], round(r["initialization_ms"], 2),
          round(r["recovery_ms"], 2), round(r["total_ms"], 2)] for r in rows],
        title="recovery overhead breakdown (LAN)",
    ))
    return 0


def cmd_counters(args: argparse.Namespace) -> int:
    """Reproduce the Table 4 counter latencies."""
    from repro.harness.experiments import table4_counter_latencies

    rows = table4_counter_latencies(samples=args.samples)
    print(format_table(
        ["counter", "write (ms)", "read (ms)"],
        [[r["counter"], round(r["write_ms"], 1), round(r["read_ms"], 1)]
         for r in rows],
        title="persistent counter latencies",
    ))
    return 0


def _csv(text: Optional[str]) -> tuple:
    """A comma-separated option value as a tuple of names."""
    return tuple(name for name in (text or "").split(",") if name)


def _seeds(args: argparse.Namespace) -> list:
    """``--seed N`` runs exactly that seed, else seeds 0..``--seeds``-1."""
    return [args.seed] if args.seed is not None else list(range(args.seeds))


def _add_fanout_args(parser: argparse.ArgumentParser, *, seeds: int,
                     per: str = "", protocols: Optional[list] = None,
                     trace_dir: bool = False) -> None:
    """The flags every campaign command shares: what it fans out over
    (``protocols`` names the default set; a command without one runs a
    single protocol and words these flags tersely), the committee, and
    where a failing seed's trace goes."""
    fans_protocols = protocols is not None
    if fans_protocols:
        parser.add_argument(
            "--protocols", nargs="+", default=None,
            help=f"protocol names (default: {' '.join(protocols)})")
    parser.add_argument("--seeds", type=int, default=seeds,
                        help=f"run seeds 0..N-1{per}")
    parser.add_argument("--seed", type=int, default=None,
                        help="run exactly this one seed" + (
                            " (reproduce a failure)" if fans_protocols else ""))
    parser.add_argument("--f", type=int, default=1, dest="faults",
                        help="fault threshold f" if fans_protocols else None)
    parser.add_argument("--network", choices=["LAN", "WAN"], default="LAN")
    if trace_dir:
        parser.add_argument("--trace-dir", default="traces",
                            help="where the first failing seed's span trace "
                                 "is dumped (Perfetto JSON)")


def _add_spec_args(parser: argparse.ArgumentParser, spec_type: type) -> None:
    """One flag per entry of the campaign spec's ``CLI`` table — type,
    default, ``store_true`` for bools, ``Optional`` and comma-separated
    tuples read off the dataclass field, so an option is declared once,
    on the spec.  The field → dest map stays on the parser for
    :func:`_spec_fields`."""
    hints = typing.get_type_hints(spec_type)
    dests = {}
    for field in dataclasses.fields(spec_type):
        if field.name not in spec_type.CLI:
            continue
        flag, help_text, *overrides = spec_type.CLI[field.name]
        kind = hints[field.name]
        if typing.get_origin(kind) is typing.Union:  # Optional[kind]
            kind = typing.get_args(kind)[0]
        if kind is bool:
            derived = {"action": "store_true"}
        elif kind is tuple:  # comma-separated names, see _spec_fields
            derived = {"default": None}
        else:
            derived = {"default": field.default}
            if kind is not str:
                derived["type"] = kind
        dests[field.name] = parser.add_argument(
            flag, help=help_text, **derived | dict(*overrides)).dest
    parser.set_defaults(spec_type=spec_type, spec_dests=dests)


def _spec_fields(args: argparse.Namespace, **narrow) -> dict:
    """The spec fields of one campaign of a parsed invocation, ``narrow``
    picking its point on the fan-out axes (``protocol=``, ``scenario=``)."""
    fields = {name: getattr(args, dest)
              for name, dest in args.spec_dests.items()}
    fields.update({name: _csv(value) for name, value in fields.items()
                   if isinstance(getattr(args.spec_type, name), tuple)})
    fields.update(f=args.faults, network=args.network, **narrow)
    args.adjust(args, fields)
    return fields


def _campaigns(args: argparse.Namespace, runner, result_type, **axes) -> list:
    """Run one campaign per point of ``axes`` (fan-out field → values) ×
    seed through the parallel harness; results in that order."""
    from repro.harness.parallel import run_experiments

    specs = [args.spec_type(**_spec_fields(args, **dict(zip(axes, point))))
             for point in itertools.product(*axes.values())]
    configs = [{"spec": spec, "seed": seed}
               for spec in specs for seed in _seeds(args)]
    return run_experiments(configs, runner=runner, result_type=result_type)


def _print_results(title: str, results: list, columns: dict) -> None:
    """One table row per campaign result.  ``columns`` maps a header to a
    result attribute, an ``extras.`` key (0 when absent) or a function of
    the result; every kind's table ends with its violation count and
    digest."""
    def cell(result, source):
        if callable(source):
            return source(result)
        if source.startswith("extras."):
            return result.extras.get(source.removeprefix("extras."), 0)
        return getattr(result, source)

    columns = columns | {"violations": lambda r: len(r.violations),
                         "digest": lambda r: r.digest[:12]}
    print(format_table(list(columns),
                       [[cell(result, source) for source in columns.values()]
                        for result in results], title=title))


#: What a campaign command fans out over: option dest → the result
#: attribute that narrows it to one run.
_FANOUT = {"protocols": "protocol", "scenario": "scenario", "seed": "seed"}


def _reproduce(args: argparse.Namespace, result) -> str:
    """The command line that re-runs ``result``'s campaign: every option
    whose parsed value differs from its parser default, with the fan-out
    options narrowed to this run.  Read off the parser, so it cannot omit
    a flag the campaign was run with."""
    values = vars(args) | {dest: getattr(result, attr)
                           for dest, attr in _FANOUT.items()
                           if hasattr(args, dest)}
    words = ["python -m repro", args.command]
    for action in args.parser._actions:
        value = values.get(action.dest, action.default)
        # ``--seeds`` is the fan-out that the pinned ``--seed`` replaces.
        if value == action.default or action.dest == "seeds":
            continue
        words.append(action.option_strings[0])
        if action.nargs != 0:  # not a bare flag
            words += map(str, value) if isinstance(value, list) else [str(value)]
    return " ".join(words)


def _report_failures(args: argparse.Namespace, results: list,
                     detail=None, run=None) -> list:
    """Print every failing campaign to stderr — a FAIL header, its
    violations, ``detail(result)`` if the kind has more to show, and the
    command that reproduces it — and return the failing results.

    With ``run`` (the kind's ``run_*(spec, seed, trace_path=)``), the
    first failure is re-run with span tracing on and its Perfetto trace
    written to ``--trace-dir``: determinism makes the re-run reproduce
    the failure exactly, so the trace shows the run that violated the
    invariant.
    """
    import pathlib

    def narrowed(result) -> dict:
        return {attr: getattr(result, attr) for dest, attr in _FANOUT.items()
                if attr != "seed" and hasattr(args, dest)}

    failures = [result for result in results if result.violations]
    for result in failures:
        names = list(narrowed(result).values()) + [f"seed {result.seed}"]
        print(f"\nFAIL {' '.join(names)}: "
              f"{len(result.violations)} violation(s)", file=sys.stderr)
        for violation in result.violations:
            print(f"  {violation}", file=sys.stderr)
        if detail is not None:
            detail(result)
        print(f"  reproduce with:\n    {_reproduce(args, result)}",
              file=sys.stderr)
    if failures and run is not None:
        first = failures[0]
        trace_dir = pathlib.Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / ("-".join([args.command, *narrowed(first).values()])
                            + f"-f{first.f}-seed{first.seed}.json")
        try:
            run(args.spec_type(**_spec_fields(args, **narrowed(first))),
                first.seed, trace_path=str(path))
            print(f"  span trace of the failing run: {path} "
                  "(open at https://ui.perfetto.dev)", file=sys.stderr)
        except Exception as exc:  # best effort: never mask the failure
            print(f"  (trace dump failed: {exc})", file=sys.stderr)
    return failures


def _chaos_adjust(args: argparse.Namespace, fields: dict) -> None:
    """``--byz-nodes`` reads 1 by default but only counts with ``--byz``."""
    if not fields["byz"]:
        fields["byz_nodes"] = 0


#: Default protocol set for ``repro chaos`` — one per trust/committee shape.
_CHAOS_PROTOCOLS = ["achilles", "achilles-c", "damysus", "minbft"]


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run seeded chaos campaigns and report invariant violations.

    Each (protocol, seed) pair is one fully deterministic campaign; a
    failing row prints the exact command that reproduces it.  Exit status
    is 1 if any invariant was violated.
    """
    from repro.faults.chaos import ChaosResult, run_chaos

    protocols = args.protocols or _CHAOS_PROTOCOLS
    lossy = bool(args.loss or args.dup or args.corrupt or args.reorder)
    byz = _csv(args.byz)
    results = _campaigns(args, run_chaos, ChaosResult, protocol=protocols)

    columns = {"protocol": "protocol", "f": "f", "n": "n", "seed": "seed",
               "height": "committed_height", "crashes": "crashes",
               "recov": "recoveries", "rollbk": "rollbacks_mounted",
               "partit": "partitions"}
    if lossy:
        columns |= {"lost": "extras.fault_dropped",
                    "retrans": "extras.retransmissions",
                    "dedup": "extras.dup_suppressed",
                    "rejected": "extras.corrupt_rejected"}
    if byz:
        columns |= {
            "byz-att": lambda r: sum(r.extras.get("byz_attempts", {}).values()),
            "byz-den": lambda r: sum(r.extras.get("byz_denials", {}).values())}
    if args.snapshot_interval:
        columns |= {"sealed": "extras.snap_sealed",
                    "restored": "extras.snap_restored",
                    "instald": "extras.snap_installed",
                    "stale": "extras.snap_stale_runs"}
    fabric = f", loss={args.loss:g} dup={args.dup:g} " \
             f"reorder={args.reorder:g} corrupt={args.corrupt:g}" if lossy else ""
    byzdesc = f", byz={','.join(byz)}×{args.byz_nodes}" if byz else ""
    if args.snapshot_interval:
        byzdesc += f", snapshots every {args.snapshot_interval} blocks" + \
            (" (trust-sealed)" if args.snapshot_trust_sealed else "")
    _print_results(
        f"chaos — {len(protocols)} protocol(s) × {len(_seeds(args))} "
        f"seed(s), {args.network}, f={args.faults}{fabric}{byzdesc}",
        results, columns)
    if byz:
        from repro.harness.report import format_byz_breakdown

        print()
        print(format_byz_breakdown(results))
    if _report_failures(args, results, run=run_chaos):
        return 1
    print(f"\nall {len(results)} campaigns passed every invariant")
    return 0


def _powercut_adjust(args: argparse.Namespace, fields: dict) -> None:
    """``--journal-off`` is a negative control: it implies the
    ``durable-prefix`` expectation it exists to trip."""
    if args.journal_off and "durable-prefix" not in fields["expect_violations"]:
        fields["expect_violations"] += ("durable-prefix",)


#: Default protocol set for ``repro powercut`` — distinct durable-state
#: shapes: Achilles (sealed rstate + recovery protocol), MinBFT (USIG
#: counter sealing), Damysus-R (checker sealing + persistent counter,
#: exercising the atomic-increment persistence points).
_POWERCUT_PROTOCOLS = ["achilles", "minbft", "damysus-r"]


def cmd_powercut(args: argparse.Namespace) -> int:
    """Exhaustive power-cut exploration over the durability layer.

    For each (protocol, seed): enumerate every persistence point one
    victim replica reaches, replay the identical run with a mid-write cut
    injected at a stratified sample of them, reboot the victim through
    ordinary recovery, and audit the full invariant suite plus
    durable-prefix.  Exit status is 1 if any cut fails (or, with
    --journal-off, if the expected durable-prefix violation ever fails
    to appear).
    """
    from repro.faults.powercut import PowercutResult, run_powercut

    protocols = args.protocols or _POWERCUT_PROTOCOLS
    results = _campaigns(args, run_powercut, PowercutResult,
                         protocol=protocols)

    mode = "journal-OFF negative control" if args.journal_off else "journaled"
    _print_results(
        f"powercut — {len(protocols)} protocol(s) × {len(_seeds(args))} "
        f"seed(s), {args.network}, f={args.faults}, {mode}",
        results,
        {"protocol": "protocol", "f": "f", "n": "n", "seed": "seed",
         "victim": "victim", "points": "points_total",
         "eligible": "points_eligible",
         "kinds": lambda r: "+".join(
             f"{k}:{v}" for k, v in r.extras.get("point_kinds", {}).items())
             or "-",
         "cuts": lambda r: len(r.cuts),
         "dropped": lambda r: sum(c.dropped_records for c in r.cuts)})
    if _report_failures(args, results):
        return 1
    cuts = sum(len(r.cuts) for r in results)
    print(f"\nall {len(results)} explorations passed: {cuts} power cuts "
          f"replayed, every recovery preserved the durable prefix"
          if not args.journal_off else
          f"\nnegative control held on all {len(results)} explorations: "
          f"{cuts} un-journaled cuts each tripped durable-prefix")
    return 0


#: Default protocol set for ``repro soak`` — the TEE protocol with full
#: recovery plus the two baselines (distinct committee/trust shapes).
_SOAK_PROTOCOLS = ["achilles", "damysus", "minbft"]


def _soak_adjust(args: argparse.Namespace, fields: dict) -> None:
    """``--hours`` overrides ``--pressure`` and stretches the diurnal
    curve so hour-scale load breathes across the run instead of
    flickering."""
    if args.hours:
        fields["pressure_ms"] = args.hours * 3_600_000.0
        fields["diurnal_period_ms"] = min(3_600_000.0,
                                          fields["pressure_ms"] / 2.0)


def cmd_soak(args: argparse.Namespace) -> int:
    """Run long-horizon soak campaigns and gate on SLO reconvergence.

    Each (protocol, scenario, seed) triple is one deterministic campaign
    over production-shaped traffic; a failing row prints its post-release
    timeline, per-phase breakdown, and the exact reproduction command.
    Exit status is 1 if any campaign failed a gate.
    """
    from repro.faults.scenarios import SCENARIOS
    from repro.harness.report import format_phase_breakdown, format_slo_timeline
    from repro.harness.soak import SoakResult, run_soak

    protocols = args.protocols or _SOAK_PROTOCOLS
    scenarios = list(SCENARIOS) if "all" in args.scenario else args.scenario
    results = _campaigns(args, run_soak, SoakResult,
                         protocol=protocols, scenario=scenarios)

    mode = " [VULNERABLE CONTROL]" if args.vulnerable else ""
    _print_results(
        f"soak — {len(protocols)} protocol(s) × {len(scenarios)} "
        f"scenario(s) × {len(_seeds(args))} seed(s), {args.network}, "
        f"f={args.faults}, "
        f"pressure {_spec_fields(args)['pressure_ms'] / 1000.0:g} s{mode}",
        results,
        {"protocol": "protocol", "scenario": "scenario", "f": "f", "n": "n",
         "seed": "seed", "height": "committed_height", "recov": "recoveries",
         "drops": "extras.overflow_drops", "nudges": "extras.backoff_nudges",
         "reconv (s)": lambda r: ("-" if r.reconverged_at_ms is None
                                  else f"{r.reconverged_at_ms / 1000.0:.2f}"),
         "cycle": lambda r: r.cycle or "-"})
    def timeline(result) -> None:
        tail = [w for w in result.windows
                if w.phase in ("reconverge", "settle")]
        every = max(1, len(tail) // 24)
        print(format_slo_timeline(tail, title="  post-release timeline:",
                                  every=every), file=sys.stderr)
        print(format_phase_breakdown(result.windows), file=sys.stderr)

    if _report_failures(args, results, detail=timeline, run=run_soak):
        return 1
    if args.vulnerable:
        print(f"\nall {len(results)} negative controls tripped the "
              f"expected invariants")
    else:
        print(f"\nall {len(results)} campaigns converged within budget")
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    """Throughput-vs-shard-count sweep over a sharded deployment.

    Every point is also a correctness run: the per-shard invariant
    monitors and the ``cross-shard-atomicity`` audit must pass or the
    sweep aborts.
    """
    from repro.shard.sweep import (format_shard_slo, format_shard_sweep,
                                   run_shard_point)

    rows = []
    for shards in args.shards:
        for seed in range(args.seeds):
            rows.append(run_shard_point(
                shards, protocol=args.protocol, f=args.faults, seed=seed,
                network=args.network, duration_ms=args.duration,
                warmup_ms=args.warmup, quiesce_ms=args.quiesce,
                rate_tps=args.rate, cross_fraction=args.cross_fraction,
                batch_size=args.batch, payload_size=args.payload,
            ))
    table = format_shard_sweep(rows)
    print(table)
    print()
    print(format_shard_slo(rows))
    if args.out:
        import pathlib

        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(table + "\n")
        print(f"\nwrote {path}")
    return 0


def _shard_chaos_adjust(args: argparse.Namespace, fields: dict) -> None:
    """``--no-ttl`` turns the participant lock TTL off altogether."""
    if args.no_ttl:
        fields["txn_ttl_blocks"] = None


def cmd_shard_chaos(args: argparse.Namespace) -> int:
    """Shard-aware chaos campaigns: crash or partition a whole shard
    mid-2PC and audit cross-shard atomicity.

    ``--no-ttl`` disables the participant timeout→abort defense; pair it
    with ``--expect cross-shard-atomicity`` for the canonical negative
    control (wedged locks MUST trip the audit).
    """
    from repro.shard.chaos import ShardChaosResult, run_shard_chaos

    results = _campaigns(args, run_shard_chaos, ShardChaosResult)

    mode = " [negative control]" if args.expect else ""
    _print_results(
        f"shard chaos — {args.shards} shards × {len(_seeds(args))} seed(s), "
        f"{args.network}, f={args.faults}, fault={args.fault}{mode}",
        results,
        {"protocol": "protocol", "shards": "shards", "f": "f", "seed": "seed",
         "fault": "fault", "victim": "victim", "mid-2pc": "in_flight_at_fault",
         "commit": "committed_txns", "abort": "aborted_txns",
         "rejects": "commit_rejects", "expired": "extras.expired_prepares"})
    if _report_failures(args, results):
        return 1
    print(f"\nall {len(results)} shard campaigns passed every invariant")
    return 0


def cmd_protocols(args: argparse.Namespace) -> int:
    """List registered protocols."""
    import repro.baselines  # noqa: F401 (registration)
    import repro.core.registry  # noqa: F401
    from repro.harness.runner import PROTOCOLS

    rows = [
        [name, spec.committee(1), "yes" if spec.uses_counter else "no",
         "no TEE" if spec.outside_tee else "SGX (simulated)"]
        for name, spec in sorted(PROTOCOLS.items())
    ]
    print(format_table(["protocol", "n at f=1", "persistent counter", "trust"],
                       rows, title="registered protocols"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    from repro.faults.chaos import ChaosSpec
    from repro.faults.powercut import PowercutSpec
    from repro.harness.soak import SoakSpec
    from repro.shard.chaos import ShardChaosSpec

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Achilles (EuroSys '25) reproduction — simulated "
                    "TEE-assisted BFT consensus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def campaign(name: str, func, adjust, spec_type: type, help: str,
                 **fanout) -> argparse.ArgumentParser:
        """A campaign sub-command: the shared fan-out flags, then one
        flag per entry of the spec's ``CLI`` table."""
        p = sub.add_parser(name, help=help)
        _add_fanout_args(p, **fanout)
        _add_spec_args(p, spec_type)
        p.set_defaults(func=func, adjust=adjust, parser=p)
        return p

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("protocol", help="protocol name (see `protocols`)")
    _add_workload_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare several protocols")
    p_cmp.add_argument("protocols", nargs="+",
                       help="protocol names (see `protocols`)")
    _add_workload_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_trace = sub.add_parser(
        "trace", help="critical-path cost breakdown + Perfetto traces")
    p_trace.add_argument("experiment", choices=sorted(_TRACE_EXPERIMENTS),
                         help="named traced experiment")
    p_trace.add_argument("--protocols", nargs="+", default=None,
                         help="protocol names (default: the Fig. 3 set)")
    p_trace.add_argument("--f", type=int, default=2, dest="faults",
                         help="fault threshold f")
    p_trace.add_argument("--counter-write-ms", type=float, default=20.0,
                         help="persistent-counter write latency for -R variants")
    p_trace.add_argument("--seed", type=int, default=1)
    p_trace.add_argument("--out-dir", default="traces",
                         help="directory for the Perfetto JSON files")
    p_trace.add_argument("--assert-coverage", action="store_true",
                         help="exit 1 unless the walk attributes >= the "
                              "--min-coverage share of commit latency")
    p_trace.add_argument("--min-coverage", type=float, default=0.95,
                         help="coverage threshold for --assert-coverage")
    p_trace.set_defaults(func=cmd_trace)

    p_rec = sub.add_parser("recovery", help="Table 2 recovery breakdown")
    p_rec.add_argument("--nodes", type=int, nargs="+",
                       default=[3, 5, 9, 21, 41, 61])
    p_rec.set_defaults(func=cmd_recovery)

    p_cnt = sub.add_parser("counters", help="Table 4 counter latencies")
    p_cnt.add_argument("--samples", type=int, default=200)
    p_cnt.set_defaults(func=cmd_counters)

    campaign("chaos", cmd_chaos, _chaos_adjust, ChaosSpec,
             "seeded chaos campaigns under invariant monitors",
             protocols=_CHAOS_PROTOCOLS, seeds=20, per=" per protocol",
             trace_dir=True)
    campaign("powercut", cmd_powercut, _powercut_adjust, PowercutSpec,
             "exhaustive power-cut exploration: cut mid-write at every "
             "enumerated persistence point, recover, audit the durable "
             "prefix",
             protocols=_POWERCUT_PROTOCOLS, seeds=3, per=" per protocol")
    p_soak = campaign(
        "soak", cmd_soak, _soak_adjust, SoakSpec,
        "long-horizon soak campaigns: production-shaped traffic, "
        "degradation-cycle detection, SLO-gated reconvergence",
        protocols=_SOAK_PROTOCOLS, seeds=3, per=" per (protocol, scenario)",
        trace_dir=True)
    p_soak.add_argument("--scenario", nargs="+", default=["all"],
                        help="soak scenarios, or 'all' (see "
                             "repro.faults.scenarios.SCENARIOS)")
    p_soak.add_argument("--hours", type=float, default=None,
                        help="pressure length in simulated HOURS "
                             "(overrides --pressure; stretches the diurnal "
                             "period to match)")
    p_shard = sub.add_parser(
        "shard", help="throughput-vs-shard-count sweep (sharded deployment)")
    p_shard.add_argument("--protocol", default="achilles")
    p_shard.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4, 8],
                         help="shard counts to sweep")
    p_shard.add_argument("--seeds", type=int, default=1,
                         help="seeds per shard count")
    p_shard.add_argument("--f", type=int, default=1, dest="faults")
    p_shard.add_argument("--network", choices=["LAN", "WAN"], default="LAN")
    p_shard.add_argument("--duration", type=float, default=2000.0,
                         help="run length per point (simulated ms)")
    p_shard.add_argument("--warmup", type=float, default=200.0)
    p_shard.add_argument("--quiesce", type=float, default=600.0,
                         help="tail with cross-shard initiation stopped (ms)")
    p_shard.add_argument("--rate", type=float, default=3000.0,
                         help="offered load PER SHARD (TPS)")
    p_shard.add_argument("--cross-fraction", type=float, default=0.1,
                         help="fraction of arrivals that are cross-shard 2PC")
    p_shard.add_argument("--batch", type=int, default=100)
    p_shard.add_argument("--payload", type=int, default=64)
    p_shard.add_argument("--out", default=None,
                         help="also write the sweep table to this file")
    p_shard.set_defaults(func=cmd_shard)

    p_schaos = campaign(
        "shard-chaos", cmd_shard_chaos, _shard_chaos_adjust, ShardChaosSpec,
        "crash/partition a whole shard mid-2PC and audit cross-shard "
        "atomicity", seeds=5)
    p_schaos.add_argument("--no-ttl", action="store_true",
                          help="disable the timeout→abort defense "
                               "(negative controls)")

    p_ls = sub.add_parser("protocols", help="list registered protocols")
    p_ls.set_defaults(func=cmd_protocols)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:  # unknown protocol, bad spec: a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
