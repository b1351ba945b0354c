"""Long-horizon soak campaigns with SLO-gated convergence.

A soak run is a **phased** campaign over production-shaped traffic
(:mod:`repro.workload`):

``warmup``        the cluster bootstraps and serves the base load;
``pressure``      a :mod:`repro.faults.scenarios` fault plan applies
                  sustained pressure (sub-quorum participation, leader
                  crash storms, overload, rollback loops);
``reconverge``    the faults have released — steady-state SLO must be
                  *re-attained* within this budget (the reconvergence
                  invariant: converge, not cycle);
``settle``        slack so the SLO streak can complete and liveness can
                  be observed well past the gate.

Throughout the run a :class:`HealthRecorder` snapshots a windowed health
signature — commit/offered rates, committed-height progress, view-change
and recovery-episode rates, replicas still recovering, mempool depth,
typed drops, per-window e2e p50/p99/p999.  Two machine-checked verdicts
come out of the timeline:

* :func:`detect_degradation_cycle` — flags **limit cycles**: a span of
  post-release windows with fault activity but *zero* committed-height
  progress whose quantized health signatures repeat periodically (the
  AEDPoS participation-collapse shape: the system is busy — view
  changes, retries, recoveries — but going nowhere, forever).
* :func:`find_reconvergence` — the earliest post-release window opening
  a streak of ``SLO_SUSTAIN_WINDOWS`` consecutive windows that meet the
  SLO (commit fraction + p99 bound).  Starting later than the budget is
  a ``reconvergence`` violation.

Both verdicts surface as :class:`~repro.harness.invariants
.InvariantViolation` entries on the run's monitor, so the
``expect_violations`` negative-control machinery (``--expect``) works
unchanged: the vulnerable-config control *must* trip
``degradation-cycle`` on every seed or the run fails.

Everything is a pure function of ``(spec, seed)``; results carry a
deterministic digest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.client.workload import DROP_OVERFLOW, QueueSource
from repro.consensus.base import NodeStatus
from repro.crypto.hashing import digest_of
from repro.errors import ConfigurationError
from repro.faults.scenarios import (SCENARIOS, FaultPlan, build_plan,
                                    install_plan)
from repro.harness.invariants import InvariantMonitor, InvariantViolation
from repro.harness.metrics import MetricsCollector
from repro.harness.runner import (
    CampaignResult,
    build_deployment,
    campaign_config,
    committed_tips,
    resolve_network,
    resolve_protocol,
    verdict,
)
from repro.net.adversary import NetworkAdversary
from repro.workload.generators import TrafficGenerator
from repro.workload.spec import WorkloadSpec


# ----------------------------------------------------------------------
# Campaign description
# ----------------------------------------------------------------------
#: What the vulnerable configuration overrides: no backoff, no damping,
#: no recovery assist, and a base view timeout below the commit latency,
#: so every view times out before it can commit.
VULNERABLE_OVERRIDES = dict(base_timeout_ms=2.0, pacemaker_max_doublings=0,
                            backoff_decay=0, recovery_assist=False)
#: Reconvergence needs this many consecutive SLO-passing windows.
SLO_SUSTAIN_WINDOWS = 4
#: Windows after release before the cycle detector starts looking.
RELEASE_GRACE_WINDOWS = 2


@dataclass(frozen=True)
class SoakSpec:
    """Knobs for one soak campaign (everything but the seed)."""

    protocol: str = "achilles"
    f: int = 1
    network: str = "LAN"
    scenario: str = "sub-quorum"
    #: Phase lengths (ms of simulated time).  Total run length is their
    #: sum; ``--hours`` in the CLI scales pressure into the hours.
    warmup_ms: float = 1200.0
    pressure_ms: float = 4000.0
    reconverge_budget_ms: float = 4000.0
    settle_ms: float = 1800.0
    #: Health-signature window width.
    window_ms: float = 250.0
    #: Traffic shape (see :class:`repro.workload.spec.WorkloadSpec`).
    base_rate_tps: float = 2500.0
    clients: int = 50_000
    arrival: str = "lognormal"
    lognormal_sigma: float = 1.0
    zipf_s: float = 1.1
    key_space: int = 512
    payload_size: int = 32
    diurnal_amplitude: float = 0.1
    diurnal_period_ms: float = 20_000.0
    #: Bounded mempool admission (overflow drops are typed + counted).
    mempool_capacity: int = 4000
    #: Deployment shaping (soak is about dynamics, not peak throughput):
    #: the batch size pins service capacity (~batch/commit-interval)
    #: between the base load and the flash-crowd spike, so overload
    #: genuinely backs up the bounded mempool instead of draining
    #: instantly.
    batch_size: int = 16
    base_timeout_ms: float = 120.0
    timeout_jitter: float = 0.1
    recovery_retry_ms: float = 25.0
    counter_write_ms: float = 5.0
    #: Storm damping (the satellite): decay-on-progress + a tighter
    #: backoff cap so a post-storm committee is not stuck waiting out a
    #: multi-second armed timeout inside the reconvergence budget.
    backoff_decay: int = 1
    pacemaker_max_doublings: int = 4
    #: Recovery-assist re-arm (the convergence fix the sub-quorum
    #: campaign forced, see docs/SOAK.md): without it, post-release
    #: recovery waits out whatever peak-backoff timers the survivors
    #: armed during the fault window.
    recovery_assist: bool = True
    #: Vulnerable configuration (negative controls): disable exponential
    #: backoff entirely and arm a base timeout below the commit latency —
    #: every view times out before it can commit, a synchronized
    #: view-change storm with zero progress, forever.  The degradation-
    #: cycle detector MUST flag it (pair with ``--expect``).
    vulnerable: bool = False
    #: SLO gate: a window passes if committed >= fraction × offered and
    #: (when it has latency samples) p99 <= the bound; reconvergence
    #: needs ``SLO_SUSTAIN_WINDOWS`` consecutive passing windows.
    slo_commit_fraction: float = 0.5
    slo_p99_ms: float = 80.0
    #: Cycle detector: span length (windows).
    #: The span must exceed the longest *legitimate* quiet interval — one
    #: maximally backed-off armed timeout (base × 2^cap × (1+jitter) ≈
    #: 2.1 s at the defaults) — or a committee honestly waiting out one
    #: stale timer reads as a limit cycle.  10 × 250 ms = 2.5 s.
    cycle_windows: int = 10
    #: Negative-control mode: these invariants MUST trip; all others
    #: still fail the run.
    expect_violations: tuple = ()
    poll_every_ms: float = 25.0

    #: ``repro soak`` flags: field → (flag, help[, argparse overrides]).
    #: Type, default and ``store_true`` come from the field itself.
    CLI: ClassVar[dict] = {
        "pressure_ms": ("--pressure",
                        "fault-pressure phase length (simulated ms)"),
        "warmup_ms": ("--warmup", "warmup phase length (ms)"),
        "reconverge_budget_ms": ("--budget",
                                 "reconvergence budget after release (ms)"),
        "settle_ms": ("--settle", "settle tail past the budget (ms)"),
        "base_rate_tps": ("--rate", "base offered load (TPS)"),
        "clients": ("--clients",
                    "client population (seeded arrival process)"),
        "mempool_capacity": ("--mempool",
                             "bounded mempool capacity (overflow drops are "
                             "typed and counted)"),
        "vulnerable": ("--vulnerable",
                       "negative control: disable backoff and arm a base "
                       "timeout below commit latency — the "
                       "degradation-cycle detector MUST trip (pair with "
                       "--expect)"),
        "expect_violations": (
            "--expect",
            "negative control: these invariants MUST trip on every seed; "
            "any other violation still fails the run",
            {"metavar": "INV[,INV]"}),
    }

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown soak scenario {self.scenario!r}; "
                f"known: {sorted(SCENARIOS)}")
        for name in ("warmup_ms", "pressure_ms", "reconverge_budget_ms",
                     "settle_ms", "window_ms"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0")
        if self.cycle_windows < 2:
            raise ConfigurationError("need cycle_windows >= 2")

    @property
    def duration_ms(self) -> float:
        """Total simulated run length."""
        return (self.warmup_ms + self.pressure_ms
                + self.reconverge_budget_ms + self.settle_ms)

    @property
    def release_ms(self) -> float:
        """When fault pressure ends and reconvergence is on the clock."""
        return self.warmup_ms + self.pressure_ms

    def phase_of(self, now_ms: float) -> str:
        """Phase label covering ``now_ms``."""
        if now_ms < self.warmup_ms:
            return "warmup"
        if now_ms < self.release_ms:
            return "pressure"
        if now_ms < self.release_ms + self.reconverge_budget_ms:
            return "reconverge"
        return "settle"


# ----------------------------------------------------------------------
# Windowed health signature
# ----------------------------------------------------------------------
@dataclass
class HealthWindow:
    """One window's health snapshot (deltas unless noted)."""

    index: int
    start_ms: float
    duration_ms: float
    phase: str
    offered: int
    committed: int
    height: int          # cumulative committed height at window end
    height_delta: int
    view_changes: int
    recoveries: int
    recovering: int      # gauge: replicas in RECOVERING at window end
    mempool_depth: int   # gauge
    drops: int
    p50: float
    p99: float
    p999: float

    def signature(self) -> tuple:
        """Quantized health state for cycle detection.

        Log-bucketing (0, 1, 2–3, 4–7, ...) makes the signature robust
        to seed-level jitter in exact counts while still separating
        "quiet" from "storming" — a limit cycle repeats bucket patterns
        even when raw counts wobble.
        """
        return (
            self.height_delta > 0,
            _bucket(self.view_changes),
            _bucket(self.recoveries),
            self.recovering > 0,
            _bucket(self.drops),
        )


def _bucket(count: int) -> int:
    """0 for 0, else 1 + floor(log2(count)), capped at 7."""
    if count <= 0:
        return 0
    return min(7, 1 + int(math.log2(count)))


class HealthRecorder:
    """Snapshots cluster health at every window boundary.

    Reads cumulative counters (collector totals, pacemaker timeouts,
    recovery episodes, drop counts) and emits per-window deltas; pure
    observation — no RNG, no behavior change.
    """

    def __init__(self, spec: SoakSpec, cluster, collector, generator,
                 source) -> None:
        self.spec = spec
        self.cluster = cluster
        self.collector = collector
        self.generator = generator
        self.source = source
        self.windows: list[HealthWindow] = []
        self._last = {"offered": 0, "committed": 0, "height": 0,
                      "view_changes": 0, "recoveries": 0, "drops": 0}

    def install(self) -> None:
        """Schedule one snapshot per window boundary, up front."""
        sim = self.cluster.sim
        n_windows = int(self.spec.duration_ms // self.spec.window_ms)
        for i in range(1, n_windows + 1):
            sim.schedule_at_fast(i * self.spec.window_ms, self._snapshot, i - 1)

    def _totals(self) -> dict:
        cluster = self.cluster
        view_changes = 0
        recoveries = 0
        recovering = 0
        for node in cluster.nodes:
            if node.pacemaker is not None:
                view_changes += node.pacemaker.timeouts_fired
            recoveries += len(node.recovery_episodes)
            if node.status is NodeStatus.RECOVERING:
                recovering += 1
        return {
            "offered": self.generator.emitted,
            "committed": self.collector.txs_committed,
            "height": cluster.max_committed_height(),
            "view_changes": view_changes,
            "recoveries": recoveries,
            "recovering": recovering,
            "mempool_depth": self.source.pending(),
            "drops": self.source.dropped(DROP_OVERFLOW),
        }

    def _snapshot(self, index: int) -> None:
        spec = self.spec
        totals = self._totals()
        last = self._last
        start_ms = index * spec.window_ms
        stats = self.collector.e2e_windows.window(index)
        self.windows.append(HealthWindow(
            index=index,
            start_ms=start_ms,
            duration_ms=spec.window_ms,
            phase=spec.phase_of(start_ms),
            offered=totals["offered"] - last["offered"],
            committed=totals["committed"] - last["committed"],
            height=totals["height"],
            height_delta=totals["height"] - last["height"],
            view_changes=totals["view_changes"] - last["view_changes"],
            recoveries=totals["recoveries"] - last["recoveries"],
            recovering=totals["recovering"],
            mempool_depth=totals["mempool_depth"],
            drops=totals["drops"] - last["drops"],
            p50=stats.p50,
            p99=stats.p99,
            p999=stats.p999,
        ))
        self._last = {k: totals[k] for k in last}


# ----------------------------------------------------------------------
# Verdicts over the timeline (pure post-processing; unit-testable)
# ----------------------------------------------------------------------
def detect_degradation_cycle(
    windows: list, start_index: int, span: int,
) -> Optional[tuple[int, int]]:
    """Find a limit cycle in ``windows[start_index:]``.

    A degradation cycle is ``span`` consecutive windows where

    * committed height made **zero** progress over the whole span,
    * every window shows activity (view changes, recoveries, drops, or a
      replica stuck recovering — the system is *busy*, not idle), and
    * the quantized health signatures repeat with some period ``p``
      (``p == 1`` is the common case: every window identical).

    Returns ``(window_index, period)`` of the first cycle, else None.
    """
    eligible = [w for w in windows if w.index >= start_index]
    for at in range(0, len(eligible) - span + 1):
        chunk = eligible[at:at + span]
        if any(w.height_delta for w in chunk):
            continue
        if not all(w.view_changes or w.recoveries or w.drops or w.recovering
                   for w in chunk):
            continue
        sigs = [w.signature() for w in chunk]
        for period in range(1, span // 2 + 1):
            if all(sigs[i] == sigs[i - period]
                   for i in range(period, len(sigs))):
                return (chunk[0].index, period)
    return None


def meets_slo(window, commit_fraction: float, p99_ms: float) -> bool:
    """One window's SLO check (see :class:`SoakSpec`)."""
    if window.committed < commit_fraction * window.offered:
        return False
    # Catch-up windows can commit more than they were offered — that is
    # healthy draining, and their p99 reflects backlog age, not current
    # service.  The p99 bound applies once the window has samples.
    if window.p99 and window.p99 > p99_ms:
        return False
    return True


def find_reconvergence(
    windows: list, release_index: int, sustain: int,
    commit_fraction: float, p99_ms: float,
) -> Optional[int]:
    """First post-release window index opening a sustained SLO streak."""
    eligible = [w for w in windows if w.index >= release_index]
    streak = 0
    for w in eligible:
        if meets_slo(w, commit_fraction, p99_ms):
            streak += 1
            if streak >= sustain:
                return w.index - sustain + 1
        else:
            streak = 0
    return None


# ----------------------------------------------------------------------
# Campaign execution
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class SoakResult(CampaignResult):
    """One seed's outcome."""

    scenario: str
    committed_height: int
    min_committed_height: int
    recoveries: int
    reconverged_at_ms: Optional[float]
    cycle: str
    windows: list[HealthWindow] = field(default_factory=list)


def _check_engagement(plan: FaultPlan, spec: SoakSpec, counters: dict) -> list[str]:
    """Anti-vacuity: every engagement the plan requires must be nonzero."""
    checks = {
        "generator": ("workload generator emitted no arrivals",
                      counters["emitted"]),
        "view-changes": ("no pacemaker timeout ever fired",
                         counters["view_changes"]),
        "recoveries": ("no recovery episode ever ran",
                       counters["recoveries"]),
        "drops": ("bounded mempool never dropped (overload never bit)",
                  counters["overflow_drops"]),
        "backoff": ("backoff decay-on-progress never engaged",
                    counters["backoff_decays"]),
        "flash": ("no arrival landed inside a flash-crowd window",
                  counters["flash_arrivals"]),
        "churn": ("client churn never changed the population",
                  counters["churn_transitions"]),
    }
    failures = []
    for key in plan.require:
        if key == "backoff" and (spec.vulnerable or spec.backoff_decay <= 0):
            continue  # the damping under test is configured off
        message, value = checks[key]
        if not value:
            failures.append(f"[soak-engagement] cluster: {message} "
                            f"(scenario {spec.scenario!r})")
    return failures


def run_soak(spec: SoakSpec, seed: int,
             trace_path: Optional[str] = None) -> SoakResult:
    """Run one seeded soak campaign and return its deterministic result."""
    protocol = resolve_protocol(spec.protocol)
    latency = resolve_network(spec.network)
    config = campaign_config(protocol, spec, seed,
                             **(VULNERABLE_OVERRIDES if spec.vulnerable
                                else {}))
    n = config.n

    plan = build_plan(
        spec.scenario,
        n=n, f=spec.f,
        pressure_start_ms=spec.warmup_ms,
        pressure_end_ms=spec.release_ms,
        seed=seed,
        has_recovery=hasattr(protocol.node_cls, "_begin_recovery"),
        clients=spec.clients,
    )

    workload = WorkloadSpec(
        base_rate_tps=spec.base_rate_tps,
        arrival=spec.arrival,
        lognormal_sigma=spec.lognormal_sigma,
        clients=spec.clients,
        churn=plan.churn,
        diurnal_amplitude=spec.diurnal_amplitude,
        diurnal_period_ms=spec.diurnal_period_ms,
        flash_crowds=plan.flash_crowds,
        zipf_s=spec.zipf_s,
        key_space=spec.key_space,
        payload_size=spec.payload_size,
        client_one_way_ms=latency.one_way_ms,
    )

    collector = MetricsCollector(warmup_ms=0.0,
                                 reply_one_way_ms=latency.one_way_ms,
                                 window_ms=spec.window_ms)
    monitor = InvariantMonitor(inner=collector)

    def open_loop(sim):
        queue = QueueSource(capacity=spec.mempool_capacity)
        return queue, TrafficGenerator(sim, queue, workload, rng_tag="soak")

    deployment = build_deployment(
        protocol, config, latency, seed,
        listener=monitor,
        open_loop=open_loop,
        poll_every_ms=spec.poll_every_ms,
        trace=trace_path is not None,
        adversary=NetworkAdversary(),
    )
    cluster = deployment.cluster
    generator = deployment.generator
    source = generator.source
    recorder = HealthRecorder(spec, cluster, collector, generator, source)
    recorder.install()
    crash_log = install_plan(deployment, plan, monitor)
    for at, phase in ((0.0, "warmup"), (spec.warmup_ms, "pressure"),
                      (spec.release_ms, "reconverge"),
                      (spec.release_ms + spec.reconverge_budget_ms, "settle")):
        cluster.sim.trace.record(at, "soak_phase", None, phase=phase)

    deployment.run(spec.duration_ms)
    deployment.audit(monitor)
    if trace_path is not None:
        deployment.write_trace(
            trace_path, f"soak/{spec.scenario}/{spec.protocol}/seed={seed}")

    windows = recorder.windows
    release_index = int(spec.release_ms // spec.window_ms)

    cycle = detect_degradation_cycle(
        windows,
        start_index=release_index + RELEASE_GRACE_WINDOWS,
        span=spec.cycle_windows,
    )
    reconverged_index = find_reconvergence(
        windows, release_index,
        sustain=SLO_SUSTAIN_WINDOWS,
        commit_fraction=spec.slo_commit_fraction,
        p99_ms=spec.slo_p99_ms,
    )
    budget_index = release_index + int(
        spec.reconverge_budget_ms // spec.window_ms)

    if cycle is not None:
        at, period = cycle
        monitor.violations.append(InvariantViolation(
            "degradation-cycle", at * spec.window_ms, None,
            f"limit cycle: {spec.cycle_windows} windows from t="
            f"{at * spec.window_ms:.0f} ms repeat health signature "
            f"(period {period}) with zero height progress"))
    # A detected cycle subsumes the reconvergence gate: the run is not
    # "late", it is structurally stuck — one violation, one cause.
    elif reconverged_index is None or reconverged_index > budget_index:
        observed = ("never" if reconverged_index is None else
                    f"at t={reconverged_index * spec.window_ms:.0f} ms")
        monitor.violations.append(InvariantViolation(
            "reconvergence", spec.release_ms + spec.reconverge_budget_ms,
            None,
            f"steady-state SLO not re-attained within "
            f"{spec.reconverge_budget_ms:.0f} ms of release "
            f"({SLO_SUSTAIN_WINDOWS} windows of >= "
            f"{spec.slo_commit_fraction:.0%} offered committed, "
            f"p99 <= {spec.slo_p99_ms:.0f} ms): {observed}"))

    recoveries = sum(len(node.recovery_episodes) for node in cluster.nodes)
    backoff_decays = 0
    backoff_nudges = 0
    peak_backoff = 0
    view_changes = 0
    for node in cluster.nodes:
        pm = node.pacemaker
        if pm is not None:
            backoff_decays += pm.backoff_decays
            backoff_nudges += pm.backoff_nudges
            peak_backoff = max(peak_backoff, pm.peak_backoff)
            view_changes += pm.timeouts_fired

    counters = {
        "emitted": generator.emitted,
        "accepted": generator.accepted,
        "view_changes": view_changes,
        "recoveries": recoveries,
        "overflow_drops": source.dropped(DROP_OVERFLOW),
        "backoff_decays": backoff_decays,
        "flash_arrivals": generator.engine.flash_arrivals,
        "churn_transitions": generator.engine.churn_transitions,
    }
    extras = dict(counters)
    violations = verdict(monitor.violations, spec.expect_violations,
                         "— the degradation did not land", extras) \
        + _check_engagement(plan, spec, counters)

    reconverged_at_ms = (None if reconverged_index is None
                         else reconverged_index * spec.window_ms)
    cycle_text = "" if cycle is None else \
        f"t={cycle[0] * spec.window_ms:.0f}ms period={cycle[1]}"
    digest = digest_of(
        "soak-result", spec.protocol, spec.scenario, spec.f, spec.network,
        seed, committed_tips(cluster.nodes), violations,
        cluster.sim.events_processed,
        counters["emitted"], counters["overflow_drops"],
        -1.0 if reconverged_at_ms is None else reconverged_at_ms,
        cycle_text,
    )

    extras["strikes_fired"] = crash_log.fired
    extras["strikes_skipped"] = crash_log.skipped
    extras["rollbacks_mounted"] = crash_log.rollbacks_mounted
    extras["peak_backoff"] = peak_backoff
    extras["backoff_nudges"] = backoff_nudges
    extras["drop_reasons"] = dict(sorted(source.drops.items()))

    return SoakResult(
        protocol=spec.protocol,
        f=spec.f,
        n=n,
        network=spec.network.upper(),
        scenario=spec.scenario,
        seed=seed,
        committed_height=cluster.max_committed_height(),
        min_committed_height=cluster.min_committed_height(),
        recoveries=recoveries,
        reconverged_at_ms=reconverged_at_ms,
        cycle=cycle_text,
        violations=violations,
        windows=windows,
        sim_events=cluster.sim.events_processed,
        digest=digest,
        extras=extras,
    )


__all__ = [
    "SoakSpec",
    "SoakResult",
    "HealthWindow",
    "HealthRecorder",
    "detect_degradation_cycle",
    "find_reconvergence",
    "meets_slo",
    "run_soak",
]
