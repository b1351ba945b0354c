"""Exhaustive power-cut exploration (ALICE/CrashMonkey-style).

Every crash the chaos layer injects is *atomic*: it lands at an event
boundary, so durable state is always either fully written or untouched.
Real power cuts land mid-write.  This module explores exactly those
states, in three phases per ``(spec, seed)``:

1. **Oracle run** — execute the seeded workload once with a *recording*
   :class:`~repro.storage.journal.PowerCutController` attached to every
   journal of one deterministically chosen victim replica.  This
   enumerates every persistence point (``write``/``fsync``/``commit``/
   ``atomic``) the victim reaches, with simulated timestamps.  The
   journals stay passive for every other node, so the oracle run is the
   plain seeded run plus bookkeeping.

2. **Replay with injection** — for a deterministic sample of the
   enumerated points (bounded by ``max_cuts``), re-execute the identical
   run with the controller armed at that point.  When the victim reaches
   it, the cut executes *synchronously, mid-handler*: every victim
   journal freezes its durable image (the cut's mutation applied — a
   lost buffered write, a torn flush tail, a clean boundary, or a
   barrier-ignoring reorder), and the victim host crashes on the spot.
   After ``downtime_ms`` the harness restores each journal from its
   frozen image (the owner rebuilds exactly the durable state) and
   reboots the victim through the protocol's ordinary recovery path.

3. **Audit** — the full :class:`~repro.harness.invariants.InvariantMonitor`
   suite runs for the whole replay, plus the ``durable-prefix`` invariant:
   the rebooted state must be a prefix of the pre-cut fsynced history
   (committed height never regresses below the durable floor captured at
   the cut, and recovery must never serve torn, uncommitted, or
   out-of-order records).

``journal_off=True`` is the negative control: the victim's journals
behave as write-back caches without barriers, recovery accepts torn and
reordered records, and ``durable-prefix`` must demonstrably trip on
every sampled cut — proving the explorer can see the failures the
journal discipline prevents.

Everything is a pure function of ``(spec, seed)``: victim choice, point
enumeration, and the cut sample are deterministic, so a failing
``(spec, seed, cut_index)`` triple is a complete bug report.

See ``docs/DURABILITY.md`` for the journal format and point taxonomy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Optional

from repro.crypto.hashing import digest_of
from repro.errors import ConfigurationError
from repro.harness.invariants import InvariantMonitor
from repro.harness.runner import (
    build_deployment,
    committed_tips,
    poisson_arrivals,
    protocol_config,
    resolve_network,
    resolve_protocol,
    spec_from_config,
    verdict,
)
from repro.net.adversary import NetworkAdversary
from repro.storage.journal import PersistencePoint, PowerCutController


# ----------------------------------------------------------------------
# Exploration description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PowercutSpec:
    """Knobs for one power-cut exploration (everything but the seed)."""

    protocol: str = "achilles"
    f: int = 1
    network: str = "LAN"
    #: Total simulated run length of the oracle and of each replay.
    duration_ms: float = 2500.0
    #: Fault-free tail: cuts land only before this window, and recovery
    #: must complete (and liveness resume) inside it.
    quiesce_ms: float = 1000.0
    #: Cuts land only after the cluster has bootstrapped.
    warmup_ms: float = 200.0
    #: Wall time the victim stays dark after the cut.
    downtime_ms: float = 120.0
    #: Replays per seed: an evenly spread sample of the eligible points
    #: (every point, when there are at most this many).
    max_cuts: int = 6
    #: How many of the sampled commit/atomic points replay as
    #: barrier-ignoring *reorder* cuts instead of clean boundary cuts.
    reorder_cuts: int = 1
    #: Persistent-counter write latency for -R variants.
    counter_write_ms: float = 5.0
    #: Negative control: victim journals become write-back caches without
    #: barriers; recovery then serves torn/uncommitted/reordered records
    #: and ``durable-prefix`` must trip on every cut.
    journal_off: bool = False
    #: Invariants *expected* to trip on every cut (negative controls).
    expect_violations: tuple = ()
    #: Workload shaping (small and fast — exploration is about coverage).
    base_rate_tps: float = 4000.0
    batch_size: int = 50
    payload_size: int = 32
    base_timeout_ms: float = 120.0
    recovery_retry_ms: float = 25.0
    timeout_jitter: float = 0.0
    poll_every_ms: float = 25.0
    #: Certified application snapshots (exercises the snapshot vault's
    #: journal too); None = off.
    snapshot_interval: Optional[int] = None
    snapshot_retain: int = 12
    kv_keys: int = 8

    #: ``repro powercut`` flags: field → (flag, help[, argparse
    #: overrides]).  Type, default and ``store_true`` come from the field.
    CLI: ClassVar[dict] = {
        "duration_ms": ("--duration", "oracle/replay length (simulated ms)"),
        "quiesce_ms": ("--quiesce", "fault-free tail: recovery and liveness "
                                    "must complete inside it (ms)"),
        "warmup_ms": ("--warmup", "cuts land only after this (ms)"),
        "downtime_ms": ("--downtime", "victim dark time after the cut (ms)"),
        "max_cuts": ("--max-cuts", "replays per seed (stratified sample of "
                                   "the enumerated points)"),
        "reorder_cuts": ("--reorder-cuts",
                         "sampled commit/atomic points replayed as "
                         "barrier-ignoring reorder cuts"),
        "counter_write_ms": (
            "--counter-write-ms",
            "persistent-counter write latency for -R variants"),
        "journal_off": ("--journal-off",
                        "negative control: victim journals become "
                        "write-back caches without barriers; every cut "
                        "MUST trip durable-prefix"),
        "expect_violations": (
            "--expect",
            "negative control: these invariants MUST trip on every cut; "
            "any other violation still fails", {"metavar": "INV[,INV]"}),
        "snapshot_interval": (
            "--snapshot-interval",
            "enable certified KV snapshots every N blocks (routes cuts "
            "through the snapshot vault too)", {"metavar": "BLOCKS"}),
        "snapshot_retain": ("--snapshot-retain", None,
                            {"metavar": "BLOCKS"}),
    }

    def __post_init__(self) -> None:
        if self.duration_ms <= self.quiesce_ms + self.warmup_ms:
            raise ConfigurationError(
                "duration_ms must exceed warmup_ms + quiesce_ms "
                f"({self.duration_ms} <= {self.warmup_ms} + {self.quiesce_ms})"
            )
        if self.max_cuts < 1:
            raise ConfigurationError("max_cuts must be at least 1")
        if self.reorder_cuts < 0 or self.reorder_cuts > self.max_cuts:
            raise ConfigurationError(
                f"reorder_cuts={self.reorder_cuts} must be within "
                f"[0, max_cuts={self.max_cuts}]")
        object.__setattr__(self, "expect_violations",
                           tuple(self.expect_violations))
        if self.journal_off and "durable-prefix" not in self.expect_violations:
            raise ConfigurationError(
                "journal_off is a negative control: add 'durable-prefix' "
                "to expect_violations")

    @property
    def cut_window(self) -> tuple[float, float]:
        """(start, end) of the window in which cuts may land."""
        return (self.warmup_ms, self.duration_ms - self.quiesce_ms)


@dataclass
class CutOutcome:
    """One replayed cut."""

    index: int
    kind: str          # cut kind requested (fsync/write/commit/atomic/reorder)
    owner: str         # journal the point fired on
    op: str
    at_ms: float
    fired: bool = False
    durable_floor: int = 0
    recovered_records: int = 0
    dropped_records: int = 0
    final_height: int = 0
    violations: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        """True iff this cut's replay satisfied every invariant."""
        return not self.violations


@dataclass
class PowercutResult:
    """One seed's exploration outcome (oracle + every sampled cut)."""

    protocol: str
    f: int
    n: int
    network: str
    seed: int
    victim: int
    points_total: int = 0
    points_eligible: int = 0
    cuts: list[CutOutcome] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    sim_events: int = 0
    digest: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True iff every replayed cut passed."""
        return not self.violations

    # Fields the chaos-style result tables expect.
    @property
    def committed_height(self) -> int:
        """Highest final committed height across all replays."""
        return max((c.final_height for c in self.cuts), default=0)


# ----------------------------------------------------------------------
# Victim wiring
# ----------------------------------------------------------------------
def pick_victim(spec: PowercutSpec, seed: int, n: int) -> int:
    """Deterministic victim choice for ``(spec, seed)``."""
    rng = random.Random(f"powercut/{spec.protocol}/{spec.f}/{seed}")
    return rng.randrange(n)


def victim_journals(node) -> list:
    """Every durable journal of one replica: the block store, each trusted
    component's sealed-blob store, and each persistent counter."""
    journals = []

    def add(journal, owner: str) -> None:
        if journal is None:
            return
        if not any(journal is j for j in journals):
            journal.owner = owner
            journals.append(journal)

    store = getattr(node, "store", None)
    add(getattr(store, "journal", None), "block-store")
    for attr in ("checker", "usig", "proposer", "accumulator",
                 "snapshot_vault"):
        component = getattr(node, attr, None)
        if component is None:
            continue
        comp_store = getattr(component, "store", None)
        add(getattr(comp_store, "journal", None), f"{attr}.store")
        counter = getattr(component, "counter", None)
        add(getattr(counter, "journal", None), f"{attr}.counter")
    return journals


# ----------------------------------------------------------------------
# One instrumented run (oracle when cut_index is None, replay otherwise)
# ----------------------------------------------------------------------
def _run_instrumented(spec: PowercutSpec, seed: int,
                      cut_index: Optional[int] = None,
                      cut_kind: Optional[str] = None):
    """Build the seeded cluster, attach the controller to the victim's
    journals, run to ``duration_ms``, and return
    ``(cluster, monitor, controller, victim, floor)``."""
    protocol = resolve_protocol(spec.protocol)
    latency = resolve_network(spec.network)
    config = protocol_config(
        protocol, spec.f, seed,
        counter_write_ms=spec.counter_write_ms,
        snapshot_interval=spec.snapshot_interval,
        snapshot_retain=spec.snapshot_retain,
        batch_size=spec.batch_size,
        payload_size=spec.payload_size,
        base_timeout_ms=spec.base_timeout_ms,
        timeout_jitter=spec.timeout_jitter,
        recovery_retry_ms=spec.recovery_retry_ms,
    )
    victim = pick_victim(spec, seed, config.n)

    monitor = InvariantMonitor()
    deployment = build_deployment(
        protocol, config, latency, seed,
        listener=monitor,
        open_loop=poisson_arrivals(
            spec.base_rate_tps, spec.payload_size, latency,
            kv_keys=spec.kv_keys if spec.snapshot_interval else 0),
        poll_every_ms=spec.poll_every_ms,
        adversary=NetworkAdversary(),
    )
    cluster = deployment.cluster

    controller = PowerCutController(cut_index=cut_index, cut_kind=cut_kind)
    controller.clock = lambda: cluster.sim.now
    node = cluster.nodes[victim]
    journals = victim_journals(node)
    if spec.journal_off:
        for journal in journals:
            journal.journaled = False
    for journal in journals:
        controller.register(journal)

    # The cut fires synchronously at the chosen persistence point, i.e.
    # mid-handler: freeze the durable floor, crash the victim on the
    # spot, and schedule the power-restore + reboot.
    floor: dict = {"height": 0, "hashes": ()}

    def on_cut(point: PersistencePoint) -> None:
        sim = cluster.sim
        hashes = []
        height = node.store.genesis.height
        for record in node.store.journal.peek_durable():
            if record.torn:
                continue
            hashes.append(record.key)
            height = max(height, record.value.height)
        floor["height"] = height
        floor["hashes"] = tuple(hashes)
        node.crash()

        def power_restore_and_reboot() -> None:
            reports = controller.power_restore_all()
            for report in reports:
                if report.prefix_violated:
                    monitor.note_prefix_violation(
                        victim,
                        f"recovery served non-prefix state after a "
                        f"{point.kind} cut: {report.describe()}",
                    )
            monitor.note_power_cut(
                victim, floor["height"], floor["hashes"],
                resume_height=node.store.committed_tip.height)
            node.reboot()

        sim.schedule_at(sim.now + spec.downtime_ms, power_restore_and_reboot,
                        label=f"powercut.reboot node{victim}")

    controller.on_cut = on_cut

    quiesce_at = spec.duration_ms - spec.quiesce_ms
    cluster.sim.schedule_at(quiesce_at, monitor.mark_quiesced,
                            label="powercut.quiesce")

    deployment.run(spec.duration_ms)
    deployment.audit(monitor)
    return cluster, monitor, controller, victim, floor


# ----------------------------------------------------------------------
# Point sampling — pure function of the oracle enumeration
# ----------------------------------------------------------------------
def sample_cuts(spec: PowercutSpec,
                points: list[PersistencePoint]) -> list[tuple[PersistencePoint, Optional[str]]]:
    """Choose which enumerated points to replay, and with which cut kind.

    * journaled mode: an even spread over all eligible points; the last
      ``reorder_cuts`` sampled commit/atomic points replay as
      barrier-ignoring reorders.
    * journal-off mode: fsync points only — a torn tail is what the
      missing discipline fails to discard, so every sampled cut
      deterministically demonstrates the violation.
    """
    start, end = spec.cut_window
    eligible = [p for p in points if start <= p.at_ms <= end]
    if spec.journal_off:
        eligible = [p for p in eligible if p.kind == "fsync"]
    if not eligible:
        return []
    if len(eligible) <= spec.max_cuts:
        sampled = list(eligible)
    else:
        # Stratify: every persistence-point kind the victim reached gets
        # replayed, with the budget split round-robin across kinds and an
        # even time-spread within each kind.
        by_kind: dict[str, list[PersistencePoint]] = {}
        for p in eligible:
            by_kind.setdefault(p.kind, []).append(p)
        kinds = [k for k in ("fsync", "commit", "write", "atomic")
                 if k in by_kind]
        kinds += [k for k in by_kind if k not in kinds]
        quota = {k: 0 for k in kinds}
        for i in range(spec.max_cuts):
            quota[kinds[i % len(kinds)]] += 1
        sampled = []
        for k in kinds:
            pool = by_kind[k]
            want = min(quota[k], len(pool))
            if not want:
                continue
            step = len(pool) / want
            sampled.extend(pool[int(i * step)] for i in range(want))
        sampled.sort(key=lambda p: p.index)

    chosen: list[tuple[PersistencePoint, Optional[str]]] = []
    reorders_left = 0 if spec.journal_off else spec.reorder_cuts
    for point in reversed(sampled):
        if reorders_left > 0 and point.kind in ("commit", "atomic"):
            chosen.append((point, "reorder"))
            reorders_left -= 1
        else:
            chosen.append((point, None))
    chosen.reverse()
    return chosen


# ----------------------------------------------------------------------
# Exploration driver
# ----------------------------------------------------------------------
def run_powercut(spec: PowercutSpec, seed: int) -> PowercutResult:
    """Run one seed's full exploration: oracle + every sampled cut."""
    # Phase 1: oracle run — enumerate every persistence point.
    cluster, monitor, controller, victim, _ = _run_instrumented(spec, seed)
    points = controller.points
    start, end = spec.cut_window
    eligible = [p for p in points if start <= p.at_ms <= end]

    violations: list[str] = []
    if monitor.violations and not spec.expect_violations:
        # The uncut oracle must be clean: a baseline failure would make
        # every replay verdict meaningless.
        violations += [f"[oracle] {v}" for v in monitor.violations]
    if not eligible:
        violations.append(
            "[powercut-engagement] cluster: the oracle run enumerated no "
            f"persistence points inside the cut window ({len(points)} total)"
        )

    result = PowercutResult(
        protocol=spec.protocol,
        f=spec.f,
        n=len(cluster.nodes),
        network=spec.network.upper(),
        seed=seed,
        victim=victim,
        points_total=len(points),
        points_eligible=len(eligible),
        sim_events=cluster.sim.events_processed,
    )
    kind_counts: dict[str, int] = {}
    for point in eligible:
        kind_counts[point.kind] = kind_counts.get(point.kind, 0) + 1
    result.extras["point_kinds"] = dict(sorted(kind_counts.items()))

    # Phase 2+3: replay each sampled cut and audit it.
    for point, kind_override in sample_cuts(spec, points):
        outcome = CutOutcome(
            index=point.index,
            kind=kind_override or point.kind,
            owner=point.owner,
            op=point.op,
            at_ms=point.at_ms,
        )
        cluster, monitor, controller, _, floor = _run_instrumented(
            spec, seed, cut_index=point.index, cut_kind=kind_override)
        outcome.fired = controller.fired
        outcome.durable_floor = floor["height"]
        outcome.final_height = cluster.nodes[victim].store.committed_tip.height
        for journal in controller.journals:
            report = journal.last_report
            if report is None:
                continue
            outcome.recovered_records += report.recovered
            outcome.dropped_records += report.total - report.recovered

        cut_violations: list[str] = []
        if not controller.fired:
            cut_violations.append(
                f"[powercut-engagement] cut {point.index} ({point.kind} on "
                f"{point.owner}) never fired on replay")
        cut_violations += verdict(
            monitor.violations, spec.expect_violations,
            f"on cut {point.index} — the journal-off recovery hid nothing")
        outcome.violations = cut_violations

        outcome.digest = digest_of(
            "powercut-cut", spec.protocol, spec.f, spec.network, seed,
            point.index, outcome.kind, committed_tips(cluster.nodes),
            cut_violations, cluster.sim.events_processed,
        )
        result.cuts.append(outcome)
        violations += [f"[cut {point.index}/{outcome.kind}] {v}"
                       for v in cut_violations]

    result.violations = violations
    result.digest = digest_of(
        "powercut-result", spec.protocol, spec.f, spec.network, seed,
        result.points_total, result.points_eligible,
        [c.digest for c in result.cuts], violations,
    )
    result.extras["cuts_run"] = len(result.cuts)
    result.extras["records_dropped"] = sum(c.dropped_records
                                           for c in result.cuts)
    return result


def run_powercut_seed(config: Mapping) -> PowercutResult:
    """Worker entry point: one config mapping → one :class:`PowercutResult`
    (module-level so :func:`repro.harness.parallel.run_experiments` can
    pickle it)."""
    return run_powercut(spec_from_config(PowercutSpec, config, "powercut"),
                        seed=int(config.get("seed", 0)))


__all__ = [
    "PowercutSpec",
    "CutOutcome",
    "PowercutResult",
    "pick_victim",
    "victim_journals",
    "sample_cuts",
    "run_powercut",
    "run_powercut_seed",
]
