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
import sys
from typing import Optional, Sequence

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
                     detail=None, rerun=None) -> list:
    """Print every failing campaign to stderr — a FAIL header, its
    violations, ``detail(result)`` if the kind has more to show, and the
    command that reproduces it — and return the failing results.

    With ``rerun(result, trace_path)``, the first failure is re-run with
    span tracing on and its Perfetto trace written to ``--trace-dir``:
    determinism makes the re-run reproduce the failure exactly, so the
    trace shows the run that violated the invariant.
    """
    import pathlib

    def names(result) -> list:
        return [getattr(result, _FANOUT[dest])
                for dest in ("protocols", "scenario") if hasattr(args, dest)]

    failures = [result for result in results if result.violations]
    for result in failures:
        print(f"\nFAIL {' '.join(names(result) + [f'seed {result.seed}'])}: "
              f"{len(result.violations)} violation(s)", file=sys.stderr)
        for violation in result.violations:
            print(f"  {violation}", file=sys.stderr)
        if detail is not None:
            detail(result)
        print(f"  reproduce with:\n    {_reproduce(args, result)}",
              file=sys.stderr)
    if failures and rerun is not None:
        first = failures[0]
        trace_dir = pathlib.Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / ("-".join([args.command] + names(first))
                            + f"-f{first.f}-seed{first.seed}.json")
        try:
            rerun(first, str(path))
            print(f"  span trace of the failing run: {path} "
                  "(open at https://ui.perfetto.dev)", file=sys.stderr)
        except Exception as exc:  # best effort: never mask the failure
            print(f"  (trace dump failed: {exc})", file=sys.stderr)
    return failures


def _chaos_spec(args: argparse.Namespace, protocol: str) -> dict:
    """The ChaosSpec fields of one ``repro chaos`` campaign."""
    byz = _csv(args.byz)
    return dict(
        protocol=protocol, f=args.faults, network=args.network,
        duration_ms=args.duration, quiesce_ms=args.quiesce,
        crashes=args.crashes, rollbacks=args.rollbacks,
        partitions=args.partitions,
        counter_write_ms=args.counter_write_ms,
        loss=args.loss, dup=args.dup, corrupt=args.corrupt,
        reorder=args.reorder, timeout_jitter=args.timeout_jitter,
        byz=byz, byz_nodes=args.byz_nodes if byz else 0,
        expect_violations=_csv(args.byz_expect),
        snapshot_interval=args.snapshot_interval,
        snapshot_retain=args.snapshot_retain,
        snapshot_trust_sealed=args.snapshot_trust_sealed,
    )


#: Default protocol set for ``repro chaos`` — one per trust/committee shape.
_CHAOS_PROTOCOLS = ["achilles", "achilles-c", "damysus", "minbft"]


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run seeded chaos campaigns and report invariant violations.

    Each (protocol, seed) pair is one fully deterministic campaign; a
    failing row prints the exact command that reproduces it.  Exit status
    is 1 if any invariant was violated.
    """
    from repro.faults.chaos import (ChaosResult, ChaosSpec, run_chaos,
                                    run_chaos_seed)
    from repro.harness.parallel import run_experiments

    protocols = args.protocols or _CHAOS_PROTOCOLS
    seeds = _seeds(args)
    lossy = bool(args.loss or args.dup or args.corrupt or args.reorder)
    byz = _csv(args.byz)
    configs = [dict(_chaos_spec(args, protocol), seed=seed)
               for protocol in protocols for seed in seeds]
    results = run_experiments(configs, runner=run_chaos_seed,
                              result_type=ChaosResult, unpack=False)

    rows = []
    for result in results:
        row = [
            result.protocol, result.f, result.n, result.seed,
            result.committed_height, result.crashes, result.recoveries,
            result.rollbacks_mounted, result.partitions,
        ]
        if lossy:
            row += [result.extras.get("fault_dropped", 0),
                    result.extras.get("retransmissions", 0),
                    result.extras.get("dup_suppressed", 0),
                    result.extras.get("corrupt_rejected", 0)]
        if byz:
            row += [sum(result.extras.get("byz_attempts", {}).values()),
                    sum(result.extras.get("byz_denials", {}).values())]
        if args.snapshot_interval:
            row += [result.extras.get("snap_sealed", 0),
                    result.extras.get("snap_restored", 0),
                    result.extras.get("snap_installed", 0),
                    result.extras.get("snap_stale_runs", 0)]
        row += [len(result.violations), result.digest[:12]]
        rows.append(row)
    headers = ["protocol", "f", "n", "seed", "height", "crashes", "recov",
               "rollbk", "partit"]
    if lossy:
        headers += ["lost", "retrans", "dedup", "rejected"]
    if byz:
        headers += ["byz-att", "byz-den"]
    if args.snapshot_interval:
        headers += ["sealed", "restored", "instald", "stale"]
    headers += ["violations", "digest"]
    fabric = f", loss={args.loss:g} dup={args.dup:g} " \
             f"reorder={args.reorder:g} corrupt={args.corrupt:g}" if lossy else ""
    byzdesc = f", byz={','.join(byz)}×{args.byz_nodes}" if byz else ""
    if args.snapshot_interval:
        byzdesc += f", snapshots every {args.snapshot_interval} blocks" + \
            (" (trust-sealed)" if args.snapshot_trust_sealed else "")
    print(format_table(
        headers, rows,
        title=f"chaos — {len(protocols)} protocol(s) × {len(seeds)} seed(s), "
              f"{args.network}, f={args.faults}{fabric}{byzdesc}",
    ))
    if byz:
        from repro.harness.report import format_byz_breakdown

        print()
        print(format_byz_breakdown(results))
    failures = _report_failures(args, results, rerun=lambda r, path: run_chaos(
        ChaosSpec(**_chaos_spec(args, r.protocol)), r.seed, trace_path=path))
    # A lossy run that never retransmitted means the reliable transport
    # was not engaged — the campaign proved nothing.
    disengaged = [r for r in results if not r.violations and args.loss > 0
                  and r.extras.get("retransmissions", 0) == 0]
    for result in disengaged:
        print(f"\nFAIL {result.protocol} seed {result.seed}: loss={args.loss:g} "
              f"but zero retransmissions (transport not engaged)",
              file=sys.stderr)
    if failures or disengaged:
        return 1
    print(f"\nall {len(results)} campaigns passed every invariant")
    return 0


def _powercut_spec(args: argparse.Namespace, protocol: str) -> dict:
    """The PowercutSpec fields of one ``repro powercut`` exploration."""
    expect = _csv(args.expect)
    if args.journal_off and "durable-prefix" not in expect:
        expect += ("durable-prefix",)
    return dict(
        protocol=protocol, f=args.faults, network=args.network,
        duration_ms=args.duration, quiesce_ms=args.quiesce,
        warmup_ms=args.warmup, downtime_ms=args.downtime,
        max_cuts=args.max_cuts, reorder_cuts=args.reorder_cuts,
        counter_write_ms=args.counter_write_ms,
        journal_off=args.journal_off, expect_violations=expect,
        snapshot_interval=args.snapshot_interval,
        snapshot_retain=args.snapshot_retain,
    )


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
    from repro.faults.powercut import PowercutResult, run_powercut_seed
    from repro.harness.parallel import run_experiments

    protocols = args.protocols or _POWERCUT_PROTOCOLS
    seeds = _seeds(args)
    configs = [dict(_powercut_spec(args, protocol), seed=seed)
               for protocol in protocols for seed in seeds]
    results = run_experiments(configs, runner=run_powercut_seed,
                              result_type=PowercutResult, unpack=False)

    rows = []
    for result in results:
        kinds = result.extras.get("point_kinds", {})
        rows.append([
            result.protocol, result.f, result.n, result.seed, result.victim,
            result.points_total, result.points_eligible,
            "+".join(f"{k}:{v}" for k, v in kinds.items()) or "-",
            len(result.cuts),
            sum(c.dropped_records for c in result.cuts),
            len(result.violations), result.digest[:12],
        ])
    mode = "journal-OFF negative control" if args.journal_off else "journaled"
    print(format_table(
        ["protocol", "f", "n", "seed", "victim", "points", "eligible",
         "kinds", "cuts", "dropped", "violations", "digest"],
        rows,
        title=f"powercut — {len(protocols)} protocol(s) × {len(seeds)} "
              f"seed(s), {args.network}, f={args.faults}, {mode}",
    ))
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


def _soak_spec(args: argparse.Namespace, protocol: str, scenario: str) -> dict:
    """The SoakSpec fields of one ``repro soak`` campaign."""
    pressure_ms = args.hours * 3_600_000.0 if args.hours else args.pressure
    spec = dict(
        protocol=protocol, scenario=scenario,
        f=args.faults, network=args.network,
        warmup_ms=args.warmup, pressure_ms=pressure_ms,
        reconverge_budget_ms=args.budget, settle_ms=args.settle,
        base_rate_tps=args.rate, clients=args.clients,
        mempool_capacity=args.mempool,
        vulnerable=args.vulnerable,
        expect_violations=_csv(args.expect),
    )
    if args.hours:
        # Hour-scale pressure: stretch the diurnal curve so the load
        # actually breathes across the run instead of flickering.
        spec["diurnal_period_ms"] = min(3_600_000.0, pressure_ms / 2.0)
    return spec


def cmd_soak(args: argparse.Namespace) -> int:
    """Run long-horizon soak campaigns and gate on SLO reconvergence.

    Each (protocol, scenario, seed) triple is one deterministic campaign
    over production-shaped traffic; a failing row prints its post-release
    timeline, per-phase breakdown, and the exact reproduction command.
    Exit status is 1 if any campaign failed a gate.
    """
    from repro.faults.scenarios import SCENARIOS
    from repro.harness.parallel import run_experiments
    from repro.harness.report import format_phase_breakdown, format_slo_timeline
    from repro.harness.soak import (SoakResult, SoakSpec, run_soak,
                                    run_soak_seed)

    protocols = args.protocols or _SOAK_PROTOCOLS
    scenarios = list(SCENARIOS) if "all" in args.scenario else args.scenario
    seeds = _seeds(args)
    configs = [
        dict(_soak_spec(args, protocol, scenario), seed=seed)
        for protocol in protocols
        for scenario in scenarios
        for seed in seeds
    ]
    results = run_experiments(configs, runner=run_soak_seed,
                              result_type=SoakResult, unpack=False)

    rows = []
    for result in results:
        reconv = ("-" if result.reconverged_at_ms is None
                  else f"{result.reconverged_at_ms / 1000.0:.2f}")
        rows.append([
            result.protocol, result.scenario, result.f, result.n,
            result.seed, result.committed_height, result.recoveries,
            result.extras.get("overflow_drops", 0),
            result.extras.get("backoff_nudges", 0), reconv,
            result.cycle or "-", len(result.violations), result.digest[:12],
        ])
    mode = " [VULNERABLE CONTROL]" if args.vulnerable else ""
    print(format_table(
        ["protocol", "scenario", "f", "n", "seed", "height", "recov",
         "drops", "nudges", "reconv (s)", "cycle", "violations", "digest"],
        rows,
        title=f"soak — {len(protocols)} protocol(s) × {len(scenarios)} "
              f"scenario(s) × {len(seeds)} seed(s), {args.network}, "
              f"f={args.faults}, "
              f"pressure {configs[0]['pressure_ms'] / 1000.0:g} s{mode}",
    ))
    def timeline(result) -> None:
        tail = [w for w in result.windows
                if w.phase in ("reconverge", "settle")]
        every = max(1, len(tail) // 24)
        print(format_slo_timeline(tail, title="  post-release timeline:",
                                  every=every), file=sys.stderr)
        print(format_phase_breakdown(result.windows), file=sys.stderr)

    if _report_failures(args, results, detail=timeline,
                        rerun=lambda r, path: run_soak(
                            SoakSpec(**_soak_spec(args, r.protocol, r.scenario)),
                            r.seed, trace_path=path)):
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


def _shard_chaos_spec(args: argparse.Namespace) -> dict:
    """The ShardChaosSpec fields of one ``repro shard-chaos`` campaign."""
    return dict(
        protocol=args.protocol, f=args.faults, shards=args.shards,
        network=args.network, duration_ms=args.duration,
        quiesce_ms=args.quiesce, rate_tps=args.rate,
        cross_fraction=args.cross_fraction, fault=args.fault,
        downtime_ms=args.downtime,
        txn_ttl_blocks=None if args.no_ttl else args.ttl_blocks,
        expect_violations=_csv(args.expect),
    )


def cmd_shard_chaos(args: argparse.Namespace) -> int:
    """Shard-aware chaos campaigns: crash or partition a whole shard
    mid-2PC and audit cross-shard atomicity.

    ``--no-ttl`` disables the participant timeout→abort defense; pair it
    with ``--expect cross-shard-atomicity`` for the canonical negative
    control (wedged locks MUST trip the audit).
    """
    from repro.harness.parallel import run_experiments
    from repro.shard.chaos import ShardChaosResult, run_shard_chaos_seed

    seeds = _seeds(args)
    configs = [dict(_shard_chaos_spec(args), seed=seed) for seed in seeds]
    results = run_experiments(configs, runner=run_shard_chaos_seed,
                              result_type=ShardChaosResult, unpack=False)

    rows = []
    for result in results:
        rows.append([
            result.protocol, result.shards, result.f, result.seed,
            result.fault, result.victim, result.in_flight_at_fault,
            result.committed_txns, result.aborted_txns, result.commit_rejects,
            result.extras.get("expired_prepares", 0),
            len(result.violations), result.digest[:12],
        ])
    mode = " [negative control]" if args.expect else ""
    print(format_table(
        ["protocol", "shards", "f", "seed", "fault", "victim", "mid-2pc",
         "commit", "abort", "rejects", "expired", "violations", "digest"],
        rows,
        title=f"shard chaos — {args.shards} shards × {len(seeds)} seed(s), "
              f"{args.network}, f={args.faults}, fault={args.fault}{mode}",
    ))
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
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Achilles (EuroSys '25) reproduction — simulated "
                    "TEE-assisted BFT consensus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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

    p_chaos = sub.add_parser(
        "chaos", help="seeded chaos campaigns under invariant monitors")
    p_chaos.add_argument("--protocols", nargs="+", default=None,
                         help=f"protocol names (default: {' '.join(_CHAOS_PROTOCOLS)})")
    p_chaos.add_argument("--seeds", type=int, default=20,
                         help="run seeds 0..N-1 per protocol")
    p_chaos.add_argument("--seed", type=int, default=None,
                         help="run exactly this one seed (reproduce a failure)")
    p_chaos.add_argument("--f", type=int, default=1, dest="faults",
                         help="fault threshold f")
    p_chaos.add_argument("--network", choices=["LAN", "WAN"], default="LAN")
    p_chaos.add_argument("--duration", type=float, default=4000.0,
                         help="campaign length (simulated ms)")
    p_chaos.add_argument("--quiesce", type=float, default=1500.0,
                         help="fault-free tail checked for liveness (ms)")
    p_chaos.add_argument("--crashes", type=int, default=3,
                         help="crash/reboot events per campaign")
    p_chaos.add_argument("--rollbacks", type=int, default=1,
                         help="rollback attacks per campaign")
    p_chaos.add_argument("--partitions", type=int, default=1,
                         help="partition windows per campaign")
    p_chaos.add_argument("--loss", type=float, default=0.0,
                         help="per-message drop probability (installs the "
                              "reliable transport when nonzero)")
    p_chaos.add_argument("--dup", type=float, default=0.0,
                         help="per-message duplication probability")
    p_chaos.add_argument("--reorder", type=float, default=0.0,
                         help="per-message reorder (extra jittered delay) "
                              "probability")
    p_chaos.add_argument("--corrupt", type=float, default=0.0,
                         help="per-message corruption probability (detected "
                              "and rejected at the receiver, then repaired "
                              "by retransmission)")
    p_chaos.add_argument("--byz", default=None, metavar="STRAT[,STRAT]",
                         help="comma-separated Byzantine strategies to stack "
                              "onto --byz-nodes replicas (see "
                              "repro.faults.byz.STRATEGIES; composes with "
                              "every other fault layer under one seed)")
    p_chaos.add_argument("--byz-nodes", type=int, default=1,
                         help="Byzantine replica count (≤ f; they occupy "
                              "fault-budget slots)")
    p_chaos.add_argument("--byz-expect", default=None, metavar="INV[,INV]",
                         help="negative control: these invariants MUST trip "
                              "(attacking an unprotected baseline); any "
                              "other violation still fails the run")
    p_chaos.add_argument("--snapshot-interval", type=int, default=None,
                         metavar="BLOCKS",
                         help="execute committed blocks on a replicated KV "
                              "store and seal a certified snapshot every N "
                              "blocks (enables log compaction + state "
                              "transfer; off by default)")
    p_chaos.add_argument("--snapshot-retain", type=int, default=12,
                         metavar="BLOCKS",
                         help="committed blocks kept below a checkpoint "
                              "after compaction (default 12)")
    p_chaos.add_argument("--snapshot-trust-sealed", action="store_true",
                         help="baseline mode: trust locally unsealed "
                              "snapshots without replaying the committed "
                              "tail (vulnerable to rollback; pair with "
                              "--byz stale-snapshot as a negative control)")
    p_chaos.add_argument("--timeout-jitter", type=float, default=0.0,
                         help="pacemaker timeout jitter fraction "
                              "(de-synchronizes view-change storms)")
    p_chaos.add_argument("--counter-write-ms", type=float, default=5.0,
                         help="persistent-counter write latency for -R variants")
    p_chaos.add_argument("--trace-dir", default="traces",
                         help="where the first failing seed's span trace "
                              "is dumped (Perfetto JSON)")
    p_chaos.set_defaults(func=cmd_chaos, parser=p_chaos)

    p_pcut = sub.add_parser(
        "powercut", help="exhaustive power-cut exploration: cut mid-write "
                         "at every enumerated persistence point, recover, "
                         "audit the durable prefix")
    p_pcut.add_argument("--protocols", nargs="+", default=None,
                        help=f"protocol names (default: "
                             f"{' '.join(_POWERCUT_PROTOCOLS)})")
    p_pcut.add_argument("--seeds", type=int, default=3,
                        help="run seeds 0..N-1 per protocol")
    p_pcut.add_argument("--seed", type=int, default=None,
                        help="run exactly this one seed (reproduce a failure)")
    p_pcut.add_argument("--f", type=int, default=1, dest="faults",
                        help="fault threshold f")
    p_pcut.add_argument("--network", choices=["LAN", "WAN"], default="LAN")
    p_pcut.add_argument("--duration", type=float, default=2500.0,
                        help="oracle/replay length (simulated ms)")
    p_pcut.add_argument("--quiesce", type=float, default=1000.0,
                        help="fault-free tail: recovery and liveness must "
                             "complete inside it (ms)")
    p_pcut.add_argument("--warmup", type=float, default=200.0,
                        help="cuts land only after this (ms)")
    p_pcut.add_argument("--downtime", type=float, default=120.0,
                        help="victim dark time after the cut (ms)")
    p_pcut.add_argument("--max-cuts", type=int, default=6,
                        help="replays per seed (stratified sample of the "
                             "enumerated points)")
    p_pcut.add_argument("--reorder-cuts", type=int, default=1,
                        help="sampled commit/atomic points replayed as "
                             "barrier-ignoring reorder cuts")
    p_pcut.add_argument("--counter-write-ms", type=float, default=5.0,
                        help="persistent-counter write latency for -R variants")
    p_pcut.add_argument("--journal-off", action="store_true",
                        help="negative control: victim journals become "
                             "write-back caches without barriers; every cut "
                             "MUST trip durable-prefix")
    p_pcut.add_argument("--expect", default=None, metavar="INV[,INV]",
                        help="negative control: these invariants MUST trip "
                             "on every cut; any other violation still fails")
    p_pcut.add_argument("--snapshot-interval", type=int, default=None,
                        metavar="BLOCKS",
                        help="enable certified KV snapshots every N blocks "
                             "(routes cuts through the snapshot vault too)")
    p_pcut.add_argument("--snapshot-retain", type=int, default=12,
                        metavar="BLOCKS")
    p_pcut.set_defaults(func=cmd_powercut, parser=p_pcut)

    p_soak = sub.add_parser(
        "soak", help="long-horizon soak campaigns: production-shaped "
                     "traffic, degradation-cycle detection, SLO-gated "
                     "reconvergence")
    p_soak.add_argument("--protocols", nargs="+", default=None,
                        help=f"protocol names (default: {' '.join(_SOAK_PROTOCOLS)})")
    p_soak.add_argument("--scenario", nargs="+", default=["all"],
                        help="soak scenarios, or 'all' (see "
                             "repro.faults.scenarios.SCENARIOS)")
    p_soak.add_argument("--seeds", type=int, default=3,
                        help="run seeds 0..N-1 per (protocol, scenario)")
    p_soak.add_argument("--seed", type=int, default=None,
                        help="run exactly this one seed (reproduce a failure)")
    p_soak.add_argument("--f", type=int, default=1, dest="faults",
                        help="fault threshold f")
    p_soak.add_argument("--network", choices=["LAN", "WAN"], default="LAN")
    p_soak.add_argument("--pressure", type=float, default=4000.0,
                        help="fault-pressure phase length (simulated ms)")
    p_soak.add_argument("--hours", type=float, default=None,
                        help="pressure length in simulated HOURS "
                             "(overrides --pressure; stretches the diurnal "
                             "period to match)")
    p_soak.add_argument("--warmup", type=float, default=1200.0,
                        help="warmup phase length (ms)")
    p_soak.add_argument("--budget", type=float, default=4000.0,
                        help="reconvergence budget after release (ms)")
    p_soak.add_argument("--settle", type=float, default=1800.0,
                        help="settle tail past the budget (ms)")
    p_soak.add_argument("--rate", type=float, default=2500.0,
                        help="base offered load (TPS)")
    p_soak.add_argument("--clients", type=int, default=50_000,
                        help="client population (seeded arrival process)")
    p_soak.add_argument("--mempool", type=int, default=4000,
                        help="bounded mempool capacity (overflow drops are "
                             "typed and counted)")
    p_soak.add_argument("--vulnerable", action="store_true",
                        help="negative control: disable backoff and arm a "
                             "base timeout below commit latency — the "
                             "degradation-cycle detector MUST trip (pair "
                             "with --expect)")
    p_soak.add_argument("--expect", default=None, metavar="INV[,INV]",
                        help="negative control: these invariants MUST trip "
                             "on every seed; any other violation still "
                             "fails the run")
    p_soak.add_argument("--trace-dir", default="traces",
                        help="where the first failing seed's span trace "
                             "is dumped (Perfetto JSON)")
    p_soak.set_defaults(func=cmd_soak, parser=p_soak)

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

    p_schaos = sub.add_parser(
        "shard-chaos", help="crash/partition a whole shard mid-2PC and "
                            "audit cross-shard atomicity")
    p_schaos.add_argument("--protocol", default="achilles")
    p_schaos.add_argument("--shards", type=int, default=2)
    p_schaos.add_argument("--seeds", type=int, default=5,
                          help="run seeds 0..N-1")
    p_schaos.add_argument("--seed", type=int, default=None,
                          help="run exactly this one seed")
    p_schaos.add_argument("--f", type=int, default=1, dest="faults")
    p_schaos.add_argument("--network", choices=["LAN", "WAN"], default="LAN")
    p_schaos.add_argument("--fault", choices=["crash", "partition", "none"],
                          default="crash")
    p_schaos.add_argument("--duration", type=float, default=12000.0)
    p_schaos.add_argument("--quiesce", type=float, default=2500.0)
    p_schaos.add_argument("--downtime", type=float, default=3800.0,
                          help="how long the victim shard stays down (ms)")
    p_schaos.add_argument("--rate", type=float, default=1500.0,
                          help="offered load per shard (TPS)")
    p_schaos.add_argument("--cross-fraction", type=float, default=0.25)
    p_schaos.add_argument("--ttl-blocks", type=int, default=1500,
                          help="participant lock TTL in committed blocks")
    p_schaos.add_argument("--no-ttl", action="store_true",
                          help="disable the timeout→abort defense "
                               "(negative controls)")
    p_schaos.add_argument("--expect", default=None, metavar="INV[,INV]",
                          help="negative control: these invariants MUST "
                               "trip; anything else failing still fails")
    p_schaos.set_defaults(func=cmd_shard_chaos, parser=p_schaos)

    p_ls = sub.add_parser("protocols", help="list registered protocols")
    p_ls.set_defaults(func=cmd_protocols)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
