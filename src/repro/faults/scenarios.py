"""Fault plans: the :class:`Crash` event, the :class:`FaultPlan` that
holds a campaign's crashes, partitions, delays, rate changes and traffic
shaping, and the two functions that install them.  Every campaign,
experiment and test crashes a replica through :func:`install_crashes`;
chaos and soak install their whole plan through :func:`install_plan`,
which also holds the plan to the paper's liveness assumption that at most
``f`` nodes reboot concurrently (Sec. 6.3).  A demonstration of the
liveness loss beyond that bound installs its crashes directly.

A soak scenario is the *fault half* of a soak campaign (the traffic half
is a :class:`~repro.workload.spec.WorkloadSpec`): a pure function of
``(spec knobs, seed)`` yielding a :class:`FaultPlan` — crashes, partition
windows, flash crowds, and client churn pinned to the campaign's phase
boundaries (warmup → **pressure** → release → reconverge).  Every fault
starts inside the pressure window and all but sub-quorum's reboots end
there, so the reconvergence gate measures the system, not a lingering
fault.

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
    No replica faults: a ×:data:`FLASH_MULTIPLIER` traffic spike for the
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
from itertools import cycle, repeat
from math import inf
from typing import Iterable

from repro.consensus.base import NodeStatus
from repro.consensus.cluster import Cluster
from repro.errors import ConfigurationError
from repro.net.adversary import DelayWindow, PartitionWindow
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


def max_concurrent(windows: Iterable[tuple[int, float, float]]) -> int:
    """The most distinct nodes down at any instant over ``(node, down_ms,
    up_ms)`` windows: a node down twice at once counts once."""
    depth: dict[int, int] = {}
    worst = 0
    edges = sorted((t, delta, node) for node, down, up in windows
                   for t, delta in ((down, 1), (up, -1)))
    for _t, delta, node in edges:
        depth[node] = depth.get(node, 0) + delta
        worst = max(worst, sum(1 for d in depth.values() if d > 0))
    return worst


@dataclass(frozen=True)
class FaultPlan:
    """Everything one campaign injects, as data.

    ``rates`` are ``(at, tps)`` changes of the open-loop offered rate;
    ``flash_crowds`` and ``churn`` shape a soak's workload; ``require``
    names the counters a soak run must see nonzero (soak's anti-vacuity
    check).  ``quiesce_at_ms`` is when the monitor starts its post-fault
    liveness clock; a crash may reboot after it (soak's sub-quorum
    reboots its victims after the heal)."""

    quiesce_at_ms: float
    crashes: tuple[Crash, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    delays: tuple[DelayWindow, ...] = ()
    rates: tuple[tuple[float, float], ...] = ()
    flash_crowds: tuple[FlashCrowd, ...] = ()
    churn: tuple[ChurnEvent, ...] = ()
    require: tuple[str, ...] = ()


def install_plan(deployment, plan: FaultPlan, monitor) -> CrashLog:
    """Schedule every plan event on the deployment's simulator: crashes,
    partitions, delays, rate changes, then the monitor's quiesce mark.

    Raises :class:`ConfigurationError` if the plan's unguarded crashes put
    more than ``f`` distinct replicas down at once (the paper's liveness
    assumption, Sec. 6.3).  A rollback crash counts as down for the rest
    of the run, since a ``-R`` victim that detects the rollback halts; a
    guarded crash bounds itself when it fires."""
    cluster = deployment.cluster
    sim, adversary = cluster.sim, cluster.network.adversary
    f = cluster.config.f
    down = max_concurrent((c.node, c.at_ms, inf if c.rollback
                           else c.reboot_at_ms)
                          for c in plan.crashes if not c.guarded)
    if down > f:
        raise ConfigurationError(
            f"plan crashes {down} nodes concurrently, but the deployment "
            f"only tolerates f={f}")
    crash_log = install_crashes(cluster, plan.crashes)
    for window in plan.partitions:
        group = set(window.group)
        sim.schedule_at_fast(window.at_ms, adversary.partition, group,
                             set(range(len(cluster.nodes))) - group)
        sim.schedule_at_fast(window.until_ms, adversary.heal_partition)
    for window in plan.delays:
        sim.schedule_at_fast(window.at_ms, adversary.delay_link, window.src,
                             window.dst, window.extra_ms, window.until_ms)
    for at, rate in plan.rates:
        sim.schedule_at_fast(at, setattr, deployment.generator, "rate_tps",
                             rate)
    sim.schedule_at_fast(plan.quiesce_at_ms, monitor.mark_quiesced)
    return crash_log


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


#: The flash spike (base × multiplier) must clear the fastest committee's
#: service rate (~batch 16 / 0.9 ms block interval ≈ 18 ktps) or the
#: bounded mempool never engages.
FLASH_MULTIPLIER = 12.0
#: Storm scenarios: one guarded crash per period, down this long.
STORM_PERIOD_MS = 700.0
STORM_DOWNTIME_MS = 180.0


def build_plan(
    scenario: str,
    *,
    n: int,
    f: int,
    pressure_start_ms: float,
    pressure_end_ms: float,
    seed: int,
    has_recovery: bool,
    clients: int,
) -> FaultPlan:
    """Generate the deterministic fault plan for one scenario/seed; its
    faults are over at ``pressure_end_ms``."""
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"unknown soak scenario {scenario!r}; known: {sorted(SCENARIOS)}")
    if pressure_end_ms <= pressure_start_ms:
        raise ConfigurationError("pressure window must have positive length")
    rng = random.Random(f"soak/{scenario}/{n}/{seed}")
    start, end = pressure_start_ms, pressure_end_ms
    recovery_req = ("recoveries",) if has_recovery else ("view-changes",)

    def storm(victims, spacing: float, rollback: bool = False):
        """Guarded crashes of ``victims`` in turn, ``spacing`` storm
        periods apart, through the pressure window."""
        strikes = []
        at = start + STORM_PERIOD_MS * rng.uniform(0.3, 0.7)
        for node in victims:
            if at + STORM_DOWNTIME_MS >= end:
                break
            strikes.append(Crash(at, node, at + STORM_DOWNTIME_MS,
                                 rollback=rollback, guarded=True))
            at += STORM_PERIOD_MS * spacing
        return tuple(strikes)

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
        return FaultPlan(
            end, crashes=crashes, partitions=partitions,
            require=("generator", "view-changes", "drops", "backoff")
                    + (("recoveries",) if has_recovery and f > 0 else ()),
        )

    if scenario == "leader-storm":
        return FaultPlan(
            end, crashes=storm(repeat(LEADER), 1.0),
            require=("generator", "view-changes", "backoff") + recovery_req,
        )

    if scenario == "flash-crowd":
        dip_at = start + (end - start) * 0.4
        dipped = max(1, int(clients * 0.5))
        return FaultPlan(
            end,
            flash_crowds=(FlashCrowd(at_ms=start, duration_ms=end - start,
                                     multiplier=FLASH_MULTIPLIER),),
            churn=(ChurnEvent(at_ms=dip_at, population=dipped),
                   ChurnEvent(at_ms=end, population=clients)),
            require=("generator", "drops", "flash", "churn"),
        )

    if scenario == "recovery-under-load":
        order = list(range(n))
        rng.shuffle(order)
        return FaultPlan(
            end, crashes=storm(cycle(order), 1.4),
            flash_crowds=(FlashCrowd(at_ms=start, duration_ms=end - start,
                                     multiplier=4.0),),
            require=("generator", "flash") + recovery_req,
        )

    # rollback-loop
    victim = rng.randrange(n)
    # Baselines without a recovery protocol just crash/reboot the fixed
    # victim; a non-leader victim forces no timeouts, so requiring
    # view-changes there would be vacuously unsatisfiable.
    return FaultPlan(
        end, crashes=storm(repeat(victim), 1.6, rollback=True),
        require=("generator",) + (("recoveries",) if has_recovery else ()),
    )


__all__ = ["FLASH_MULTIPLIER", "LEADER", "SCENARIOS", "STORM_DOWNTIME_MS",
           "STORM_PERIOD_MS", "Crash", "CrashLog", "FaultPlan", "build_plan",
           "crash_and_reboot", "install_crashes", "install_plan",
           "max_concurrent"]
