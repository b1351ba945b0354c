"""Soak scenario plans: phase-scheduled fault pressure.

A scenario is the *fault half* of a soak campaign (the traffic half is a
:class:`~repro.workload.spec.WorkloadSpec`): a pure function of
``(spec knobs, seed)`` yielding a :class:`SoakPlan` — crash/reboot
schedules, partition windows, flash crowds, and client churn pinned to
the campaign's phase boundaries (warmup → **pressure** → release →
reconverge).  All faults live strictly inside the pressure window, so
the reconvergence gate measures the system, not a lingering fault.

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
    Periodic crash of the *current* leader (resolved at fire time) with
    short downtime: repeated view changes + recovery episodes while
    traffic keeps flowing.  Strikes respect the f-bound — a strike is
    skipped while any replica is still down or recovering.

``flash-crowd``
    No replica faults: a ×``flash_multiplier`` traffic spike for the
    pressure window plus a mass client churn dip, overwhelming the
    bounded mempool — overload must degrade via typed drops and drain
    back to SLO after release.

``recovery-under-load``
    Moderate overload (×4) and a rotating single-victim crash/reboot
    cycle: recovery runs while the mempool is saturated.

``rollback-loop``
    One victim crash/reboots every period with a fresh rollback attacker
    mounted each episode (the AEDPoS-style loop): every recovery must
    terminate and the attack must never land.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.net.adversary import PartitionWindow
from repro.workload.spec import ChurnEvent, FlashCrowd


@dataclass(frozen=True)
class SoakCrash:
    """One crash/reboot event.  ``node == LEADER`` resolves the victim to
    the current leader at fire time.  ``guarded`` strikes are skipped at
    fire time if any replica is already down or recovering — a dynamic
    f-bound for storms whose victims recover at traffic-dependent speed
    (the planner cannot know recovery duration under load).  Sub-quorum
    plans set ``guarded=False``: crashing f replicas concurrently *is*
    the scenario."""

    at_ms: float
    node: int
    reboot_at_ms: float
    rollback: bool = False
    guarded: bool = True


#: Sentinel victim id: "whoever leads when the strike fires".
LEADER = -1


@dataclass(frozen=True)
class SoakPlan:
    """Fault + traffic-shaping schedule for one soak scenario."""

    scenario: str
    crashes: tuple[SoakCrash, ...] = ()
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
            SoakCrash(
                at_ms=start + 20.0 * i,
                node=node,
                # Staggered reboots *after* the heal: each recovering
                # replica sees >= f+1 RUNNING helpers.
                reboot_at_ms=end + 200.0 + 350.0 * i,
                guarded=False,
            )
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
            strikes.append(SoakCrash(
                at_ms=at, node=LEADER,
                reboot_at_ms=at + storm_downtime_ms,
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
            strikes.append(SoakCrash(
                at_ms=at, node=order[i % n],
                reboot_at_ms=at + storm_downtime_ms,
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
        strikes.append(SoakCrash(
            at_ms=at, node=victim,
            reboot_at_ms=at + storm_downtime_ms,
            rollback=True,
        ))
        at += storm_period_ms * 1.6
    # Baselines without a recovery protocol just crash/reboot the fixed
    # victim; a non-leader victim forces no timeouts, so requiring
    # view-changes there would be vacuously unsatisfiable.
    return SoakPlan(
        scenario=scenario, crashes=tuple(strikes),
        require=("generator",) + (("recoveries",) if has_recovery else ()),
    )


__all__ = ["SCENARIOS", "LEADER", "SoakCrash", "SoakPlan", "build_plan"]
