"""Crash events, the one function that installs them (every campaign,
schedule and experiment crashes a replica through :func:`install_crashes`),
and the fault plans built from them.

The paper assumes at most ``f`` nodes reboot concurrently (Sec. 6.3);
:class:`CrashRebootSchedule` enforces that bound unless explicitly asked
not to, so a test that wants to demonstrate the liveness loss beyond the
bound must opt in.

A soak scenario is the *fault half* of a soak campaign (the traffic half
is a :class:`~repro.workload.spec.WorkloadSpec`): a pure function of
``(spec knobs, seed)`` yielding a :class:`SoakPlan` — crashes, partition
windows, flash crowds, and client churn pinned to the campaign's phase
boundaries (warmup → **pressure** → release → reconverge).  All faults
live strictly inside the pressure window, so the reconvergence gate
measures the system, not a lingering fault.

The catalog (see docs/SOAK.md):

``sub-quorum``
    Sustained sub-quorum participation: crash ``f`` replicas (the crash
    budget) *and* partition one more away, so the reachable-running set
    is below quorum for the whole pressure window — zero commits, view
    storms on every survivor, mempool backlog.  At release the partition
    heals first, then the crashed replicas reboot staggered (Algorithm 3
    needs f+1 RUNNING helpers, which the healed survivors provide —
    rebooting f+1 concurrent victims of a 2f+1 committee would deadlock
    recovery permanently, which is why the sub-quorum pressure is
    partition-shaped, not crash-shaped).

``leader-storm``
    Periodic guarded crash of the *current* leader (resolved at fire
    time) with short downtime: repeated view changes + recovery episodes
    while traffic keeps flowing.  Guarded crashes respect the f-bound —
    one is skipped while any replica is still down or recovering.

``flash-crowd``
    No replica faults: a ×``flash_multiplier`` traffic spike for the
    pressure window plus a mass client churn dip, overwhelming the
    bounded mempool — overload must degrade via typed drops and drain
    back to SLO after release.

``recovery-under-load``
    Moderate overload (×4) and a rotating single-victim guarded
    crash/reboot cycle: recovery runs while the mempool is saturated.

``rollback-loop``
    One victim takes a guarded rollback crash every period, so a fresh
    rollback attacker is mounted each episode (the AEDPoS-style loop):
    every recovery must terminate and the attack must never land.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.consensus.base import NodeStatus
from repro.consensus.cluster import Cluster
from repro.errors import ConfigurationError
from repro.net.adversary import PartitionWindow
from repro.tee.rollback import RollbackAttacker, mount_rollback_attack
from repro.workload.spec import ChurnEvent, FlashCrowd


#: Sentinel victim id: "whoever leads when the crash fires".
LEADER = -1


@dataclass(frozen=True)
class Crash:
    """Crash ``node`` at ``at_ms`` and reboot it at ``reboot_at_ms``.

    ``node == LEADER`` names, when the crash fires, the leader of the
    highest view any live replica is in.  ``rollback`` reboots the victim
    under a fresh :func:`mount_rollback_attack`.  A ``guarded`` crash
    fires only while every replica is RUNNING (a dynamic f-bound for
    storms whose victims recover at traffic-dependent speed) and is
    skipped otherwise; any other crash fires whatever the victim's
    status."""

    at_ms: float
    node: int
    reboot_at_ms: float
    rollback: bool = False
    guarded: bool = False


@dataclass
class CrashLog:
    """What :func:`install_crashes` did, filled in as the run goes."""

    fired: int = 0
    skipped: int = 0
    #: Every rollback attacker mounted, one per rollback reboot.
    attackers: list[RollbackAttacker] = field(default_factory=list)

    @property
    def rollbacks_mounted(self) -> int:
        """Unseals the attackers answered with a stale version."""
        return sum(a.attacks_mounted for a in self.attackers)


def install_crashes(cluster: Cluster, crashes: Iterable[Crash]) -> CrashLog:
    """Schedule every crash on the cluster's simulator.

    Whether a crash fires, and which replica ``LEADER`` names, is decided
    when it fires; its reboot is scheduled then, ``reboot_at_ms - at_ms``
    later.  A protocol whose rejoin never reads untrusted storage
    (Achilles) still gets its attacker: ``attacks_mounted`` staying 0 is
    part of the proof."""
    sim, nodes = cluster.sim, cluster.nodes
    log = CrashLog()

    def reboot(node, rollback: bool) -> None:
        attacker = mount_rollback_attack(node) if rollback else None
        if attacker is not None:
            log.attackers.append(attacker)
        node.reboot(attacker)

    def fire(crash: Crash) -> None:
        # A HALTED replica is not RUNNING: its detected rollback is a fault
        # charged against f for the rest of the run, so a guarded crash
        # never adds a second one next to it.
        if crash.guarded and any(node.status is not NodeStatus.RUNNING
                                 for node in nodes):
            log.skipped += 1
            return
        victim = crash.node
        if victim == LEADER:
            views = [node.view for node in nodes if node.alive]
            victim = nodes[0].leader_of(max(views)) if views else 0
        log.fired += 1
        nodes[victim].crash()
        sim.schedule_fast(crash.reboot_at_ms - crash.at_ms, reboot,
                          nodes[victim], crash.rollback)

    for crash in crashes:
        sim.schedule_at_fast(crash.at_ms, fire, crash)
    return log


def crash_and_reboot(cluster: Cluster, node_id: int, at_ms: float,
                     downtime_ms: float) -> None:
    """Crash ``node_id`` at ``at_ms`` and reboot it ``downtime_ms`` later."""
    install_crashes(cluster, [Crash(at_ms, node_id, at_ms + downtime_ms)])


@dataclass
class CrashRebootSchedule:
    """A declarative list of (node, crash time, downtime) events."""

    events: list[tuple[int, float, float]] = field(default_factory=list)
    allow_excessive: bool = False

    def add(self, node_id: int, at_ms: float, downtime_ms: float) -> "CrashRebootSchedule":
        """Append one crash/reboot event; returns self for chaining."""
        self.events.append((node_id, at_ms, downtime_ms))
        return self

    @classmethod
    def rolling(cls, node_ids: list[int], start_ms: float, spacing_ms: float,
                downtime_ms: float) -> "CrashRebootSchedule":
        """Crash the given nodes one after another (never concurrently when
        ``spacing_ms > downtime_ms``)."""
        schedule = cls()
        for i, node_id in enumerate(node_ids):
            schedule.add(node_id, start_ms + i * spacing_ms, downtime_ms)
        return schedule

    def max_concurrent(self) -> int:
        """The largest number of nodes down at any instant."""
        edges: list[tuple[float, int]] = []
        for _node, at, downtime in self.events:
            edges.append((at, +1))
            edges.append((at + downtime, -1))
        edges.sort()
        worst = current = 0
        for _t, delta in edges:
            current += delta
            worst = max(worst, current)
        return worst

    def apply(self, cluster: Cluster) -> None:
        """Install every event on the cluster's simulator.

        Raises :class:`ConfigurationError` if more than ``f`` nodes would be
        down concurrently and ``allow_excessive`` is False (the paper's
        liveness assumption, Sec. 6.3).
        """
        if not self.allow_excessive and self.max_concurrent() > cluster.config.f:
            raise ConfigurationError(
                f"schedule crashes {self.max_concurrent()} nodes concurrently, "
                f"but the deployment only tolerates f={cluster.config.f}"
            )
        install_crashes(cluster, [Crash(at, node_id, at + downtime)
                                  for node_id, at, downtime in self.events])


@dataclass(frozen=True)
class SoakPlan:
    """Fault + traffic-shaping schedule for one soak scenario."""

    scenario: str
    crashes: tuple[Crash, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    flash_crowds: tuple[FlashCrowd, ...] = ()
    churn: tuple[ChurnEvent, ...] = ()
    #: Anti-vacuity engagement requirements (see soak._check_engagement):
    #: each key names a counter that must be nonzero for the run to count.
    require: tuple[str, ...] = ()


#: scenario name -> one-line description (the CLI catalog).
SCENARIOS: dict[str, str] = {
    "sub-quorum": "crash f + isolate 1: participation below quorum for the "
                  "whole pressure window, heal+reboot at release",
    "leader-storm": "periodic crash of the current leader (short downtime), "
                    "repeated view changes + recoveries under traffic",
    "flash-crowd": "x-multiplier traffic spike + mass client churn against "
                   "the bounded mempool; no replica faults",
    "recovery-under-load": "x4 overload + rotating single-victim "
                           "crash/reboot: recovery under saturation",
    "rollback-loop": "one victim crash/reboots every period with a fresh "
                     "rollback attack mounted each episode",
}


def build_plan(
    scenario: str,
    *,
    n: int,
    f: int,
    quorum: int,
    pressure_start_ms: float,
    pressure_end_ms: float,
    seed: int,
    has_recovery: bool,
    clients: int,
    flash_multiplier: float = 8.0,
    storm_period_ms: float = 700.0,
    storm_downtime_ms: float = 180.0,
) -> SoakPlan:
    """Generate the deterministic fault plan for one scenario/seed."""
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"unknown soak scenario {scenario!r}; known: {sorted(SCENARIOS)}")
    if pressure_end_ms <= pressure_start_ms:
        raise ConfigurationError("pressure window must have positive length")
    rng = random.Random(f"soak/{scenario}/{n}/{seed}")
    start, end = pressure_start_ms, pressure_end_ms
    recovery_req = ("recoveries",) if has_recovery else ("view-changes",)

    if scenario == "sub-quorum":
        # f crashed + 1 isolated leaves n - f - 1 reachable-running, which
        # is < quorum for both 2f+1 (= f) and 3f+1 (= 2f) committees.
        victims = rng.sample(range(n), f + 1)
        isolated, crashed = victims[0], victims[1:]
        crashes = tuple(
            # Unguarded: crashing f replicas concurrently *is* the
            # scenario.  Staggered reboots *after* the heal: each
            # recovering replica sees >= f+1 RUNNING helpers.
            Crash(at_ms=start + 20.0 * i, node=node,
                  reboot_at_ms=end + 200.0 + 350.0 * i)
            for i, node in enumerate(crashed)
        )
        partitions = (PartitionWindow(at_ms=start, until_ms=end,
                                      group=(isolated,)),)
        return SoakPlan(
            scenario=scenario, crashes=crashes, partitions=partitions,
            require=("generator", "view-changes", "drops", "backoff")
                    + (("recoveries",) if has_recovery and f > 0 else ()),
        )

    if scenario == "leader-storm":
        strikes = []
        at = start + storm_period_ms * rng.uniform(0.3, 0.7)
        while at + storm_downtime_ms < end:
            strikes.append(Crash(
                at_ms=at, node=LEADER,
                reboot_at_ms=at + storm_downtime_ms, guarded=True,
            ))
            at += storm_period_ms
        return SoakPlan(
            scenario=scenario, crashes=tuple(strikes),
            require=("generator", "view-changes", "backoff") + recovery_req,
        )

    if scenario == "flash-crowd":
        dip_at = start + (end - start) * 0.4
        dipped = max(1, int(clients * 0.5))
        return SoakPlan(
            scenario=scenario,
            flash_crowds=(FlashCrowd(at_ms=start, duration_ms=end - start,
                                     multiplier=flash_multiplier),),
            churn=(ChurnEvent(at_ms=dip_at, population=dipped),
                   ChurnEvent(at_ms=end, population=clients)),
            require=("generator", "drops", "flash", "churn"),
        )

    if scenario == "recovery-under-load":
        order = list(range(n))
        rng.shuffle(order)
        strikes = []
        at = start + storm_period_ms * rng.uniform(0.3, 0.7)
        i = 0
        while at + storm_downtime_ms < end:
            strikes.append(Crash(
                at_ms=at, node=order[i % n],
                reboot_at_ms=at + storm_downtime_ms, guarded=True,
            ))
            i += 1
            at += storm_period_ms * 1.4
        return SoakPlan(
            scenario=scenario, crashes=tuple(strikes),
            flash_crowds=(FlashCrowd(at_ms=start, duration_ms=end - start,
                                     multiplier=4.0),),
            require=("generator", "flash") + recovery_req,
        )

    # rollback-loop
    victim = rng.randrange(n)
    strikes = []
    at = start + storm_period_ms * rng.uniform(0.3, 0.7)
    while at + storm_downtime_ms < end:
        strikes.append(Crash(
            at_ms=at, node=victim,
            reboot_at_ms=at + storm_downtime_ms,
            rollback=True, guarded=True,
        ))
        at += storm_period_ms * 1.6
    # Baselines without a recovery protocol just crash/reboot the fixed
    # victim; a non-leader victim forces no timeouts, so requiring
    # view-changes there would be vacuously unsatisfiable.
    return SoakPlan(
        scenario=scenario, crashes=tuple(strikes),
        require=("generator",) + (("recoveries",) if has_recovery else ()),
    )


__all__ = ["LEADER", "SCENARIOS", "Crash", "CrashLog", "CrashRebootSchedule",
           "SoakPlan", "build_plan", "crash_and_reboot", "install_crashes"]
