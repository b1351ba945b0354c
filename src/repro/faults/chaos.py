"""Seeded chaos campaigns.

A campaign is a reproducible composition of every fault class the
repository models — crash/reboot events (respecting the paper's f-bound),
rollback attacks (:class:`~repro.tee.rollback.RollbackAttacker` plans),
partitions and targeted delays (via
:class:`~repro.net.adversary.NetworkAdversary`), and client churn —
generated as a *pure function of* ``(spec, seed)`` into one
:class:`~repro.faults.scenarios.FaultPlan`.  :func:`run_plan` runs a
campaign as it is given, so a plan with events dropped or edited runs
through the same body as a generated one; re-running a seed reproduces
the exact event sequence and the exact simulation, so a failing seed is a
complete bug report.

The run keeps an :class:`~repro.harness.invariants.InvariantMonitor`
attached for the whole execution: safety (Theorem 1 prefix consistency,
certified commits) is checked continuously, and liveness (recovery
termination, post-quiesce progress) once the injected faults quiesce.

This follows the simulation-based robustness methodology of Berger et al.
("Simulating BFT Protocol Implementations at Scale") and the resilience
evaluation style of NxBFT: many seeds, every fault class, invariants
always on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.crypto.hashing import digest_of
from repro.errors import ConfigurationError
from repro.faults.byz import (
    STRATEGIES,
    applicable_strategies,
    collect_byz_counters,
    make_byzantine,
    resolve_strategies,
)
from repro.faults.scenarios import (Crash, FaultPlan, install_plan,
                                    max_concurrent)
from repro.harness.invariants import InvariantMonitor
from repro.harness.runner import (
    CampaignResult,
    build_deployment,
    campaign_config,
    committed_tips,
    poisson_arrivals,
    resolve_network,
    resolve_protocol,
    verdict,
)
from repro.net.adversary import (DelayWindow, NetworkAdversary,
                                 PartitionWindow)
from repro.net.faults import LinkFaultModel
from repro.net.transport import TransportConfig


# ----------------------------------------------------------------------
# Campaign description
# ----------------------------------------------------------------------
#: How long a crashed replica stays down (uniform draw, ms).
MIN_DOWNTIME_MS = 20.0
MAX_DOWNTIME_MS = 250.0
#: Longest partition window (ms).
MAX_PARTITION_MS = 400.0
#: Largest targeted extra delay on a link (ms).
MAX_EXTRA_DELAY_MS = 25.0
#: Client churn: offered-load changes at random times, each to a rate
#: drawn from this range (the plan then restores the base rate so the
#: liveness check has traffic).
CHURN_EVENTS = 2
MIN_RATE_TPS = 500.0
MAX_RATE_TPS = 8000.0
#: Budget added to each crash window when checking the f-bound: a
#: rebooted node is still effectively faulty while it runs recovery,
#: and two concurrent recoveries can deadlock an f=1 committee.
RECOVERY_GRACE_MS = 500.0


@dataclass(frozen=True)
class ChaosSpec:
    """Knobs for one chaos campaign (everything but the seed)."""

    protocol: str = "achilles"
    f: int = 2
    network: str = "LAN"
    #: Total simulated run length.
    duration_ms: float = 4000.0
    #: Fault-free tail: all injected faults end this long before the end,
    #: and post-quiesce liveness is checked over this window.
    quiesce_ms: float = 1500.0
    #: Faults start only after the cluster has bootstrapped.
    warmup_ms: float = 200.0
    #: Crash/reboot events to attempt (events that would exceed the
    #: f-bound are dropped deterministically).
    crashes: int = 3
    #: Rollback attacks to mount on rebooting nodes (only on protocols
    #: that defend: Achilles-style recovery or -R counters).
    rollbacks: int = 1
    #: Partition windows (a minority group is isolated, then healed).
    partitions: int = 1
    #: Targeted extra-delay rules on random links.
    delays: int = 2
    base_rate_tps: float = 4000.0
    #: Persistent-counter write latency for -R variants.
    counter_write_ms: float = 5.0
    #: Probabilistic link-fault rates (fabric-wide, every message):
    #: loss / duplication / reordering / corruption probabilities.  Any
    #: nonzero rate also installs the reliable transport.
    loss: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    #: Deterministic pacemaker timeout jitter (see ProtocolConfig).
    timeout_jitter: float = 0.0
    #: Deployment shaping (small and fast — chaos is about logic coverage).
    batch_size: int = 50
    payload_size: int = 32
    base_timeout_ms: float = 120.0
    recovery_retry_ms: float = 25.0
    #: Invariant poll period.
    poll_every_ms: float = 25.0
    #: Byzantine layer: strategy names from
    #: :data:`repro.faults.byz.STRATEGIES` stacked onto ``byz_nodes``
    #: replicas.  Empty = no Byzantine layer — and zero extra RNG draws,
    #: so a byz-disabled campaign is bit-identical to a pre-byz one.
    byz: tuple = ()
    #: Byzantine replica count (≤ f; Byzantine replicas occupy
    #: fault-budget slots, so the honest crash budget shrinks to
    #: f − byz_nodes).  Defaults to 1 whenever strategies are given.
    byz_nodes: int = 0
    #: Negative-control mode: invariants *expected* to trip (attacking an
    #: unprotected baseline).  The run fails if one of them does NOT trip
    #: — and any violation outside this list still fails it.
    expect_violations: tuple = ()
    #: Certified application snapshots: checkpoint/snapshot every this
    #: many blocks (None = snapshots off; nonzero also compacts the log,
    #: keeping ``snapshot_retain`` blocks, and switches the workload to
    #: KV-shaped payloads over ``kv_keys`` keys).
    snapshot_interval: Optional[int] = None
    #: Committed blocks retained after each compaction (snapshot runs).
    snapshot_retain: int = 12
    #: Undefended restore baseline (negative controls only): trust the
    #: latest sealed snapshot even when the retained log cannot bridge
    #: the gap to the committed tip.
    snapshot_trust_sealed: bool = False
    #: Distinct KV keys the workload writes when snapshots are on.
    kv_keys: int = 8

    #: ``repro chaos`` flags: field → (flag, help[, argparse overrides]).
    #: Type, default and ``store_true`` come from the field itself.
    CLI: ClassVar[dict] = {
        "duration_ms": ("--duration", "campaign length (simulated ms)"),
        "quiesce_ms": ("--quiesce",
                       "fault-free tail checked for liveness (ms)"),
        "crashes": ("--crashes", "crash/reboot events per campaign"),
        "rollbacks": ("--rollbacks", "rollback attacks per campaign"),
        "partitions": ("--partitions", "partition windows per campaign"),
        "loss": ("--loss", "per-message drop probability (installs the "
                           "reliable transport when nonzero)"),
        "dup": ("--dup", "per-message duplication probability"),
        "reorder": ("--reorder", "per-message reorder (extra jittered "
                                 "delay) probability"),
        "corrupt": ("--corrupt",
                    "per-message corruption probability (detected and "
                    "rejected at the receiver, then repaired by "
                    "retransmission)"),
        "byz": ("--byz",
                "comma-separated Byzantine strategies to stack onto "
                "--byz-nodes replicas (see repro.faults.byz.STRATEGIES; "
                "composes with every other fault layer under one seed)",
                {"metavar": "STRAT[,STRAT]"}),
        # The flag reads 1 but only counts once --byz names a strategy.
        "byz_nodes": ("--byz-nodes", "Byzantine replica count (≤ f; they "
                                     "occupy fault-budget slots)",
                      {"default": 1}),
        "expect_violations": (
            "--byz-expect",
            "negative control: these invariants MUST trip (attacking an "
            "unprotected baseline); any other violation still fails the run",
            {"metavar": "INV[,INV]"}),
        "snapshot_interval": (
            "--snapshot-interval",
            "execute committed blocks on a replicated KV store and seal a "
            "certified snapshot every N blocks (enables log compaction + "
            "state transfer; off by default)", {"metavar": "BLOCKS"}),
        "snapshot_retain": (
            "--snapshot-retain",
            "committed blocks kept below a checkpoint after compaction "
            "(default 12)", {"metavar": "BLOCKS"}),
        "snapshot_trust_sealed": (
            "--snapshot-trust-sealed",
            "baseline mode: trust locally unsealed snapshots without "
            "replaying the committed tail (vulnerable to rollback; pair "
            "with --byz stale-snapshot as a negative control)"),
        "timeout_jitter": ("--timeout-jitter",
                           "pacemaker timeout jitter fraction "
                           "(de-synchronizes view-change storms)"),
        "counter_write_ms": (
            "--counter-write-ms",
            "persistent-counter write latency for -R variants"),
    }

    def __post_init__(self) -> None:
        if self.duration_ms <= self.quiesce_ms + self.warmup_ms:
            raise ConfigurationError(
                "duration_ms must exceed warmup_ms + quiesce_ms "
                f"({self.duration_ms} <= {self.warmup_ms} + {self.quiesce_ms})"
            )
        object.__setattr__(self, "byz", tuple(self.byz))
        object.__setattr__(self, "expect_violations",
                           tuple(self.expect_violations))
        if self.byz:
            try:
                resolve_strategies(self.byz)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None
            if self.byz_nodes == 0:
                object.__setattr__(self, "byz_nodes", 1)
        if self.byz_nodes and not self.byz:
            raise ConfigurationError(
                "byz_nodes set without any byz strategies")
        if self.byz_nodes > self.f:
            raise ConfigurationError(
                f"byz_nodes={self.byz_nodes} exceeds the fault budget "
                f"f={self.f}")
        if self.snapshot_trust_sealed and not self.snapshot_interval:
            raise ConfigurationError(
                "snapshot_trust_sealed requires snapshot_interval")
        if "stale-snapshot" in self.byz and not self.snapshot_interval:
            raise ConfigurationError(
                "the stale-snapshot strategy attacks the snapshot vault: "
                "set snapshot_interval to enable snapshots")

    @property
    def fault_window(self) -> tuple[float, float]:
        """(start, end) of the window in which faults may be active."""
        return (self.warmup_ms, self.duration_ms - self.quiesce_ms)


@dataclass(frozen=True)
class ChaosCampaign:
    """The generated, fully deterministic fault plan for one seed."""

    spec: ChaosSpec
    seed: int
    n: int
    #: Honest crashes (``rollback`` on the victims attacked at reboot),
    #: then the Byzantine self-reboots; partitions, delays, client churn
    #: as offered-rate changes.  At most f nodes down by construction.
    faults: FaultPlan
    #: Crash attempts dropped to respect the f-bound (observability: a
    #: campaign must say what it did NOT inject, not silently shrink).
    crashes_dropped: int = 0
    rollbacks_skipped: int = 0
    #: Byzantine replicas and the (applicable) strategies they stack.
    byz_ids: tuple[int, ...] = ()
    byz_strategies: tuple[str, ...] = ()
    #: Configured strategies inapplicable to this protocol — recorded,
    #: never silently dropped.
    byz_skipped: tuple[str, ...] = ()

    def describe(self) -> str:
        """One line summarizing the injected faults."""
        byz = ""
        if self.byz_ids:
            byz = (f", byz nodes {list(self.byz_ids)} "
                   f"[{','.join(self.byz_strategies)}]")
            if self.byz_skipped:
                byz += f" (skipped: {','.join(self.byz_skipped)})"
        crashes = self.faults.crashes
        honest = sum(c.node not in self.byz_ids for c in crashes)
        victims = {c.node for c in crashes if c.rollback}
        return (
            f"{self.spec.protocol} f={self.spec.f} seed={self.seed}: "
            f"{honest} crash(es) "
            f"({self.crashes_dropped} dropped for f-bound), "
            f"{len(victims)} rollback(s) "
            f"({self.rollbacks_skipped} skipped), "
            f"{len(self.faults.partitions)} partition(s), "
            f"{len(self.faults.delays)} delay rule(s), "
            f"{len(self.faults.rates)} churn event(s)" + byz
        )


# ----------------------------------------------------------------------
# Campaign generation — pure function of (spec, seed)
# ----------------------------------------------------------------------
def _defends_rollback(protocol_spec, node_cls) -> bool:
    """Only attack protocols that defend: -R counters detect stale state,
    and Achilles-style recovery never trusts storage at all.  Attacking an
    *unprotected* sealing protocol (plain Damysus/OneShot) would be a
    demonstration of its known vulnerability, not a regression signal."""
    if protocol_spec.uses_counter:
        return True
    # A rejoin that never unseals consensus state (Achilles, MinBFT) has
    # nothing an attacker could feed: storage attacks are moot.
    return not node_cls.RESTORES_FROM_SEAL


def generate_campaign(spec: ChaosSpec, seed: int) -> ChaosCampaign:
    """Generate the deterministic fault plan for ``(spec, seed)``."""
    protocol = resolve_protocol(spec.protocol)
    n = protocol.committee(spec.f)
    rng = random.Random(f"chaos/{spec.protocol}/{spec.f}/{seed}")
    start, end = spec.fault_window

    # Byzantine layer, on its own RNG stream: a disabled layer draws
    # nothing, so the rest of the campaign stays bit-identical.
    byz_ids: tuple[int, ...] = ()
    byz_strategies: list[str] = []
    byz_skipped: list[str] = []
    # Byzantine self-reboots, generated when stale-seal or stale-snapshot
    # is in play: feeding the enclave a stale sealed blob requires the
    # attacker's host to reboot.  They carry no rollback: the strategy
    # chain's pre_reboot hook mounts the stale blob itself.
    byz_reboots: list[Crash] = []
    if spec.byz:
        byz_rng = random.Random(f"chaos-byz/{spec.protocol}/{spec.f}/{seed}")
        byz_strategies, byz_skipped = applicable_strategies(
            protocol.node_cls, spec.byz)
        if byz_strategies:
            byz_ids = tuple(sorted(byz_rng.sample(range(n), spec.byz_nodes)))
        if "stale-seal" in byz_strategies:
            # The stale-blob feed happens at unseal: each Byzantine host
            # reboots itself once so its enclave goes through restore.
            for node in byz_ids:
                downtime = byz_rng.uniform(MIN_DOWNTIME_MS, MAX_DOWNTIME_MS)
                at = byz_rng.uniform(start, max(start + 1.0, end - downtime))
                byz_reboots.append(Crash(at, node, at + downtime))
        if "stale-snapshot" in byz_strategies:
            # Rolling a snapshot back is only meaningful once several
            # versions have been sealed, so these self-reboots land in the
            # last stretch of the fault window — by then compaction has
            # pruned past the oldest sealed snapshot and the rollback
            # leaves a real gap.
            late = start + 0.6 * (end - start)
            for node in byz_ids:
                downtime = byz_rng.uniform(MIN_DOWNTIME_MS, MAX_DOWNTIME_MS)
                at = byz_rng.uniform(late, max(late + 1.0, end - downtime))
                byz_reboots.append(Crash(at, node, at + downtime))
    byz_set = set(byz_ids)
    # Byzantine replicas occupy fault-budget slots for the whole run.
    honest_budget = spec.f - len(byz_ids)

    # Partition windows first: they lengthen recoveries, so crash-window
    # admission below must see them.  A minority group (≤ f nodes) is
    # isolated, then healed before the quiesce window.
    partitions: list[PartitionWindow] = []
    for _ in range(spec.partitions):
        size = rng.randint(1, max(1, spec.f))
        group = tuple(sorted(rng.sample(range(n), size)))
        length = rng.uniform(50.0, MAX_PARTITION_MS)
        at = rng.uniform(start, max(start + 1.0, end - length))
        partitions.append(PartitionWindow(
            at_ms=at, until_ms=min(end, at + length), group=group,
        ))

    def effective_end(at: float, downtime: float) -> float:
        """When the victim is plausibly RUNNING again: reboot + recovery
        grace, stretched through any partition the recovery overlaps."""
        done = at + downtime + RECOVERY_GRACE_MS
        for window in sorted(partitions, key=lambda w: w.at_ms):
            if window.at_ms < done and window.until_ms > at + downtime:
                done = max(done, window.until_ms + RECOVERY_GRACE_MS)
        return done

    def admits(events: list[tuple[int, float, float]]) -> bool:
        """True iff concurrent honest crashes stay within the budget the
        Byzantine replicas leave open (f − byz_nodes).  Each event holds
        a slot of its own, a victim crashed twice included."""
        return max_concurrent(
            (i, at, effective_end(at, downtime))
            for i, (_who, at, downtime) in enumerate(events)
        ) <= honest_budget

    # (node, crash at, downtime) events, f-bound enforced at generation
    # time over the *extended* windows (crash + recovery), never per raw
    # downtime only.
    events: list[tuple[int, float, float]] = []
    crashes_dropped = 0
    down_nodes: set[int] = set()
    for _ in range(spec.crashes):
        node = rng.randrange(n)
        if node in byz_set:
            # Byzantine replicas crash only on their own (byz_reboots)
            # schedule; the honest crash layer never touches them.
            crashes_dropped += 1
            continue
        downtime = rng.uniform(MIN_DOWNTIME_MS, MAX_DOWNTIME_MS)
        latest_start = end - downtime
        if latest_start <= start:
            crashes_dropped += 1
            continue
        at = rng.uniform(start, latest_start)
        overlaps_self = any(
            who == node and at < effective_end(other_at, other_down)
            and other_at < effective_end(at, downtime)
            for who, other_at, other_down in events
        )
        if overlaps_self or not admits(events + [(node, at, downtime)]):
            crashes_dropped += 1
            continue
        events.append((node, at, downtime))
        down_nodes.add(node)

    # Rollback attacks ride on crash victims.  A detected rollback keeps
    # the victim offline for good (-R semantics), so treat its downtime as
    # extending to the end of the run when checking the f-bound.
    rollback_victims: list[int] = []
    rollbacks_skipped = 0
    defended = _defends_rollback(protocol, protocol.node_cls)
    victims = sorted(down_nodes)
    rng.shuffle(victims)
    for node in victims[: spec.rollbacks]:
        if not defended:
            rollbacks_skipped += 1
            continue
        stretched = [
            (who, at, spec.duration_ms - at)
            if (who == node or who in rollback_victims) else (who, at, downtime)
            for who, at, downtime in events
        ]
        if not admits(stretched):
            rollbacks_skipped += 1
            continue
        rollback_victims.append(node)
    rollbacks_skipped += max(0, spec.rollbacks - len(victims))

    # Targeted delay rules on random links.
    delays: list[DelayWindow] = []
    for _ in range(spec.delays):
        src = rng.randrange(n) if rng.random() < 0.7 else None
        dst = rng.randrange(n) if rng.random() < 0.7 else None
        at = rng.uniform(start, end)
        until = rng.uniform(at, end)
        delays.append(DelayWindow(
            at_ms=at, until_ms=until, src=src, dst=dst,
            extra_ms=rng.uniform(1.0, MAX_EXTRA_DELAY_MS),
        ))

    # Client churn: rate swings inside the fault window, then back to base
    # so the post-quiesce liveness check always has traffic to commit.
    rates = sorted((rng.uniform(start, end),
                    rng.uniform(MIN_RATE_TPS, MAX_RATE_TPS))
                   for _ in range(CHURN_EVENTS))
    rates.append((end, spec.base_rate_tps))

    crashes = [Crash(at, node, at + downtime,
                     rollback=node in rollback_victims)
               for node, at, downtime in events]
    return ChaosCampaign(
        spec=spec,
        seed=seed,
        n=n,
        faults=FaultPlan(end, crashes=tuple(crashes + byz_reboots),
                         partitions=tuple(partitions), delays=tuple(delays),
                         rates=tuple(rates)),
        crashes_dropped=crashes_dropped,
        rollbacks_skipped=rollbacks_skipped,
        byz_ids=byz_ids,
        byz_strategies=tuple(byz_strategies),
        byz_skipped=tuple(byz_skipped),
    )


# ----------------------------------------------------------------------
# Campaign execution
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class ChaosResult(CampaignResult):
    """One seed's outcome."""

    committed_height: int
    min_committed_height: int
    recoveries: int
    crashes: int
    rollbacks_mounted: int
    partitions: int


def run_chaos(spec: ChaosSpec, seed: int,
              trace_path: Optional[str] = None) -> ChaosResult:
    """Run one seeded campaign and return its (deterministic) result."""
    return run_plan(generate_campaign(spec, seed), trace_path)


def run_plan(campaign: ChaosCampaign,
             trace_path: Optional[str] = None) -> ChaosResult:
    """Run ``campaign`` as given and return its (deterministic) result.

    ``trace_path`` turns on :mod:`repro.obs` span tracing for the run and
    writes the Perfetto/Chrome trace JSON there — the debugging view of a
    failing seed (tracing never changes simulation outcomes, so the traced
    re-run reproduces the failure exactly).
    """
    spec, seed = campaign.spec, campaign.seed
    protocol = resolve_protocol(spec.protocol)
    latency = resolve_network(spec.network)
    config = campaign_config(protocol, spec, seed)

    # Lossy fabric + reliable transport.  Both are pure functions of the
    # spec: at all-zero rates neither exists and the run is bit-identical
    # to the pre-fault-layer baseline — the digests below pin exactly that.
    faults = transport = None
    if spec.loss or spec.dup or spec.reorder or spec.corrupt:
        faults = LinkFaultModel(loss=spec.loss, dup=spec.dup,
                                reorder=spec.reorder, corrupt=spec.corrupt)
        transport = TransportConfig()

    byzantine_factories = None
    if campaign.byz_ids:
        byz_cls = make_byzantine(protocol.node_cls, campaign.byz_strategies)
        byzantine_factories = {i: byz_cls for i in campaign.byz_ids}

    monitor = InvariantMonitor(
        track_seal_freshness=("stale-seal" in campaign.byz_strategies
                              or "stale-snapshot" in campaign.byz_strategies),
    )
    deployment = build_deployment(
        protocol, config, latency, seed,
        listener=monitor,
        # KV-shaped payloads only for snapshot runs.
        open_loop=poisson_arrivals(
            spec.base_rate_tps, spec.payload_size, latency,
            kv_keys=spec.kv_keys if spec.snapshot_interval else 0),
        poll_every_ms=spec.poll_every_ms,
        trace=trace_path is not None,
        adversary=NetworkAdversary(),
        faults=faults,
        transport=transport,
        byzantine_factories=byzantine_factories,
    )
    cluster = deployment.cluster
    crash_log = install_plan(deployment, campaign.faults, monitor)
    deployment.run(spec.duration_ms)
    deployment.audit(monitor)
    if trace_path is not None:
        deployment.write_trace(
            trace_path, f"chaos/{spec.protocol}/f={spec.f}/seed={seed}")

    recoveries = sum(len(node.recovery_episodes) for node in cluster.nodes)
    # Byzantine engagement: a configured, applicable attack that never
    # fired proves nothing — fail the run, even in negative-control mode.
    byz_counters = collect_byz_counters(cluster) if campaign.byz_ids else {}
    engagement_failures: list[str] = []
    for name in campaign.byz_strategies:
        counts = byz_counters.get(name, {"attempts": 0, "denials": 0})
        if counts["attempts"] > 0 or counts["denials"] > 0:
            continue
        if STRATEGIES[name].needs_recovery:
            # These attacks need an honest recovery to interact with —
            # and replay needs a *second* episode to replay into.
            required = recoveries >= (2 if name == "replay-recovery" else 1)
        else:
            required = True
        if required:
            engagement_failures.append(
                f"[byz-engagement] cluster: strategy '{name}' was "
                f"configured but never engaged (0 attempts, 0 denials)")

    # Snapshot-layer engagement + observability: a snapshot campaign whose
    # vault never sealed, or whose reboots never exercised the restore
    # path, proves nothing about rollback resilience.
    snap_totals: dict[str, int] = {}
    if config.snapshots:
        for node in cluster.nodes:
            for key, value in node.snapshot_counters.items():
                snap_totals[key] = snap_totals.get(key, 0) + value
        if snap_totals.get("sealed", 0) == 0:
            engagement_failures.append(
                "[snapshot-engagement] cluster: snapshots enabled but no "
                "snapshot was ever sealed")
        reboots = len(campaign.faults.crashes)
        restores = (snap_totals.get("restored", 0)
                    + snap_totals.get("installed", 0)
                    + snap_totals.get("stale_runs", 0))
        if reboots and restores == 0:
            engagement_failures.append(
                f"[snapshot-engagement] cluster: {reboots} reboot(s) but "
                f"the snapshot restore path never ran")

    extras: dict = {}
    if faults is not None:
        stats = cluster.network.stats
        totals = cluster.network.transport_totals()
        extras["fault_dropped"] = stats.fault_dropped
        extras["fault_duplicated"] = stats.fault_duplicated
        extras["fault_corrupted"] = stats.fault_corrupted
        extras["corrupt_rejected"] = stats.corrupt_rejected
        extras["duplicates_delivered"] = stats.duplicates_delivered
        extras["retransmissions"] = totals.get("retransmissions", 0)
        extras["dup_suppressed"] = totals.get("dup_suppressed", 0)
        extras["acks_sent"] = totals.get("acks_sent", 0)
        extras["window_evictions"] = totals.get("window_evictions", 0)
        extras["transport_engaged"] = cluster.network.transport is not None
        # A lossy run that never retransmitted had a transport that never
        # engaged: the campaign proved nothing about delivery.
        if spec.loss > 0 and extras["retransmissions"] == 0:
            engagement_failures.append(
                f"[transport-engagement] cluster: loss={spec.loss:g} but "
                f"zero retransmissions (the transport never engaged)")

    violations = verdict(monitor.violations, spec.expect_violations,
                         "— the attack did not land",
                         extras) + engagement_failures
    digest = digest_of(
        "chaos-result", spec.protocol, spec.f, spec.network, seed,
        committed_tips(cluster.nodes), violations,
        cluster.sim.events_processed,
    )

    if campaign.byz_ids:
        extras["byz_ids"] = list(campaign.byz_ids)
        extras["byz_strategies"] = list(campaign.byz_strategies)
        extras["byz_skipped"] = list(campaign.byz_skipped)
        extras["byz_attempts"] = {
            name: counts["attempts"]
            for name, counts in sorted(byz_counters.items())
        }
        extras["byz_denials"] = {
            name: counts["denials"]
            for name, counts in sorted(byz_counters.items())
        }
    if config.snapshots:
        for key, value in sorted(snap_totals.items()):
            extras[f"snap_{key}"] = value
        heights = [node.state_machine.state_height
                   for node in cluster.nodes
                   if node.state_machine is not None]
        extras["state_heights"] = heights
        top = max(heights, default=0)
        extras["state_roots_at_max"] = len({
            node.state_machine.state_root for node in cluster.nodes
            if node.state_machine is not None
            and node.state_machine.state_height == top})

    return ChaosResult(
        protocol=spec.protocol,
        f=spec.f,
        n=campaign.n,
        network=spec.network.upper(),
        seed=seed,
        committed_height=cluster.max_committed_height(),
        min_committed_height=cluster.min_committed_height(),
        recoveries=recoveries,
        crashes=sum(c.node not in campaign.byz_ids
                    for c in campaign.faults.crashes),
        rollbacks_mounted=crash_log.rollbacks_mounted,
        partitions=len(campaign.faults.partitions),
        violations=violations,
        sim_events=cluster.sim.events_processed,
        digest=digest,
        extras=extras,
    )


__all__ = [
    "ChaosSpec",
    "ChaosCampaign",
    "ChaosResult",
    "generate_campaign",
    "run_chaos",
    "run_plan",
]
