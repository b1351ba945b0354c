"""Chaos campaigns: determinism, f-bound discipline, and clean runs.

The acceptance bar for the chaos harness is strict: a campaign is a pure
function of ``(spec, seed)`` (same seed → byte-identical plan *and*
byte-identical result digest), no generated plan ever exceeds the
deployment's fault budget, and every supported protocol survives the
composed crash/rollback/partition/churn faults with zero invariant
violations.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.consensus.base import NodeStatus
from repro.errors import ChainError, ConfigurationError
from repro.faults.chaos import (ChaosSpec, generate_campaign, run_chaos,
                                run_plan)
from repro.faults.scenarios import max_concurrent


SMOKE = ChaosSpec(duration_ms=2200.0, quiesce_ms=900.0, warmup_ms=150.0)

#: The rollback plan of ``make rollback-smoke``: two crashes, up to two of
#: them rolled back at reboot where the protocol seals, no partitions.
ROLLBACK_PLAN = dict(f=1, duration_ms=2200.0, quiesce_ms=900.0, crashes=2,
                     rollbacks=2, partitions=0)


class TestCampaignGeneration:
    def test_same_seed_same_campaign(self):
        spec = ChaosSpec(protocol="achilles", f=2)
        assert generate_campaign(spec, 11) == generate_campaign(spec, 11)

    def test_different_seeds_differ(self):
        spec = ChaosSpec(protocol="achilles", f=2)
        plans = {generate_campaign(spec, seed).faults.crashes
                 for seed in range(8)}
        assert len(plans) > 1

    def test_f_bound_respected(self):
        """No generated plan ever has more than f crash windows open at
        once: each crash event holds a slot of its own, and a rollback
        victim's window runs to the end of the run."""
        for seed in range(25):
            campaign = generate_campaign(
                ChaosSpec(protocol="achilles", f=1, crashes=6, rollbacks=2), seed)
            crashes = campaign.faults.crashes
            windows = [(i, c.at_ms, campaign.spec.duration_ms
                        if c.rollback else c.reboot_at_ms)
                       for i, c in enumerate(crashes)]
            assert max_concurrent(windows) <= 1, (seed, crashes)

    def test_faults_end_before_quiesce(self):
        spec = ChaosSpec(protocol="achilles", f=2, crashes=5, partitions=3)
        quiesce_at = spec.duration_ms - spec.quiesce_ms
        for seed in range(10):
            campaign = generate_campaign(spec, seed)
            faults = campaign.faults
            assert faults.quiesce_at_ms == quiesce_at
            for crash in faults.crashes:
                assert crash.reboot_at_ms <= quiesce_at
            for window in faults.partitions + faults.delays:
                assert window.until_ms <= quiesce_at

    def test_partitions_isolate_minorities_only(self):
        for seed in range(10):
            campaign = generate_campaign(ChaosSpec(protocol="achilles", f=2), seed)
            for window in campaign.faults.partitions:
                assert len(window.group) <= campaign.spec.f

    def test_unprotected_protocols_get_no_rollback(self):
        """Plain Damysus is genuinely rollback-vulnerable; attacking it
        would demonstrate the known break, not find a regression."""
        for seed in range(10):
            campaign = generate_campaign(
                ChaosSpec(protocol="damysus", f=1, rollbacks=3), seed)
            assert not any(c.rollback for c in campaign.faults.crashes)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            generate_campaign(ChaosSpec(protocol="nope"), 0)

    def test_degenerate_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="duration_ms"):
            ChaosSpec(duration_ms=1000.0, quiesce_ms=900.0, warmup_ms=200.0)

    def test_describe_reports_drops(self):
        campaign = generate_campaign(
            ChaosSpec(protocol="achilles", f=1, crashes=8), 3)
        text = campaign.describe()
        assert "dropped for f-bound" in text
        assert f"seed={campaign.seed}" in text


class TestChaosRuns:
    @pytest.mark.parametrize("protocol,f", [
        ("achilles", 1),
        ("achilles-c", 1),
        ("damysus", 1),
        ("minbft", 1),
    ])
    def test_campaign_runs_clean(self, protocol, f):
        spec = ChaosSpec(protocol=protocol, f=f,
                         duration_ms=SMOKE.duration_ms,
                         quiesce_ms=SMOKE.quiesce_ms,
                         warmup_ms=SMOKE.warmup_ms)
        result = run_chaos(spec, seed=2)
        assert result.ok, result.violations
        assert result.committed_height > 0
        assert result.n == 2 * f + 1

    @pytest.mark.xfail(strict=True, raises=ChainError, reason=(
        "ROADMAP item 5(a): a lagging FlexiBFT replica becomes leader and "
        "proposes from its stale committed tip, a commit that does not "
        "extend the committed chain (h=115)"))
    def test_flexibft_seed_3_commits_one_chain(self):
        result = run_chaos(ChaosSpec(protocol="flexibft", f=1,
                                     duration_ms=2500, quiesce_ms=1000),
                           seed=3)
        assert result.ok, result.violations

    @pytest.mark.xfail(strict=True, raises=ChainError, reason=(
        "ROADMAP item 5(a): seed 3's conflicting commit needs only three of "
        "its plan's events"))
    def test_flexibft_seed_3_minimal_plan_commits_one_chain(self):
        """Seed 3's plan cut to node 3's rollback crash, node 2's partition
        and the global delay, with no rate changes."""
        campaign = generate_campaign(ChaosSpec(protocol="flexibft", f=1,
                                               duration_ms=2500,
                                               quiesce_ms=1000), 3)
        faults = campaign.faults
        [crash] = [c for c in faults.crashes if c.node == 3]
        [partition] = [w for w in faults.partitions if w.group == (2,)]
        [delay] = [w for w in faults.delays if w.src is w.dst is None]
        assert (round(crash.at_ms, 1), round(crash.reboot_at_ms, 1),
                crash.rollback) == (1159.8, 1370.1, True)
        assert (round(partition.at_ms, 1),
                round(partition.until_ms, 1)) == (415.6, 756.8)
        assert (round(delay.at_ms, 1), round(delay.until_ms, 1),
                round(delay.extra_ms, 1)) == (490.6, 1327.1, 10.2)
        result = run_plan(replace(campaign, faults=replace(
            faults, crashes=(crash,), partitions=(partition,),
            delays=(delay,), rates=())))
        assert result.ok, result.violations

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 5(a): FlexiBFT does not echo view changes; node 1, "
        "partitioned 387-700 ms, leads view 1 without installing it, the "
        "views end [1, 0, 1, 0] and no view gathers a quorum (h=94)"))
    def test_flexibft_seed_16_is_live_after_quiesce(self):
        result = run_chaos(ChaosSpec(protocol="flexibft", f=1,
                                     duration_ms=2500, quiesce_ms=1000),
                           seed=16)
        if any("post-quiesce-liveness" not in v for v in result.violations):
            pytest.fail(f"not the pinned failure: {result.violations}")
        assert result.ok, result.violations

    def test_damysus_r_rollback_is_mounted(self):
        """The rollback plan of ``make rollback-smoke`` attacks Damysus-R's
        checker on every one of these seeds."""
        for seed in range(3):
            result = run_chaos(
                ChaosSpec(protocol="damysus-r", **ROLLBACK_PLAN), seed)
            assert result.rollbacks_mounted >= 1, seed

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 5(a): mount_rollback_attack looks for a `checker`; "
        "MinBFT-R's trusted component is its `usig`, so the same plan "
        "mounts no rollback on it"))
    def test_minbft_r_rollback_is_mounted(self):
        for seed in range(3):
            result = run_chaos(
                ChaosSpec(protocol="minbft-r", **ROLLBACK_PLAN), seed)
            assert result.rollbacks_mounted >= 1, seed

    def test_rollback_protected_variant_survives_attack(self):
        """Find a seed whose campaign actually mounts a rollback attack on
        Damysus-R and check the invariants all hold (the victim detects the
        stale counter and stays out rather than equivocating)."""
        spec = ChaosSpec(protocol="damysus-r", f=1,
                         duration_ms=SMOKE.duration_ms,
                         quiesce_ms=SMOKE.quiesce_ms,
                         warmup_ms=SMOKE.warmup_ms,
                         rollbacks=2)
        for seed in range(12):
            crashes = generate_campaign(spec, seed).faults.crashes
            if any(c.rollback for c in crashes):
                result = run_chaos(spec, seed)
                assert result.ok, result.violations
                return
        pytest.fail("no seed in 0..11 mounted a rollback attack")

    def test_result_digest_reproducible(self):
        spec = ChaosSpec(protocol="achilles", f=1,
                         duration_ms=SMOKE.duration_ms,
                         quiesce_ms=SMOKE.quiesce_ms,
                         warmup_ms=SMOKE.warmup_ms)
        first = run_chaos(spec, seed=4)
        second = run_chaos(spec, seed=4)
        assert first == second
        assert first.digest == second.digest
        assert run_chaos(spec, seed=5).digest != first.digest

    def test_run_chaos_seed_config_mapping(self):
        """A campaign config ``{"spec": spec, "seed": seed}`` is the
        runner's keyword arguments: through the harness without a cache it
        equals calling ``run_chaos(spec, seed)``."""
        from repro.faults.chaos import ChaosResult
        from repro.harness.parallel import run_experiments

        spec = ChaosSpec(protocol="achilles", f=1,
                         duration_ms=SMOKE.duration_ms,
                         quiesce_ms=SMOKE.quiesce_ms,
                         warmup_ms=SMOKE.warmup_ms)
        [result] = run_experiments([{"spec": spec, "seed": 2}],
                                   runner=run_chaos, result_type=ChaosResult)
        assert result.seed == 2 and result.protocol == "achilles"
        assert result == run_chaos(spec, 2)

    def test_parallel_harness_integration(self, tmp_path, monkeypatch):
        """run_experiments runs every campaign kind from the config
        ``{"spec": spec, "seed": seed}``, equal to calling its runner, and
        caches results by (runner, config): a second call replays them
        from disk equal to the fresh run, nested records included."""
        from repro.faults.chaos import ChaosResult
        from repro.faults.powercut import (CutOutcome, PowercutResult,
                                           PowercutSpec, run_powercut)
        from repro.harness.parallel import run_experiments
        from repro.harness.soak import (HealthWindow, SoakResult, SoakSpec,
                                        run_soak)

        chaos = ChaosSpec(protocol="achilles", f=1,
                          duration_ms=SMOKE.duration_ms,
                          quiesce_ms=SMOKE.quiesce_ms,
                          warmup_ms=SMOKE.warmup_ms)
        powercut = PowercutSpec(protocol="minbft", duration_ms=900.0,
                                quiesce_ms=400.0, warmup_ms=150.0,
                                max_cuts=1)
        soak = SoakSpec(scenario="flash-crowd", warmup_ms=250.0,
                        pressure_ms=500.0, reconverge_budget_ms=500.0,
                        settle_ms=250.0, clients=5000)
        monkeypatch.setenv("REPRO_HARNESS_WORKERS", "1")
        replayed = {}
        for runner, result_type, spec, seeds in (
                (run_chaos, ChaosResult, chaos, (0, 1)),
                (run_powercut, PowercutResult, powercut, (1,)),
                (run_soak, SoakResult, soak, (1,))):
            configs = [{"spec": spec, "seed": seed} for seed in seeds]
            lines: list[str] = []
            fresh = run_experiments(configs, cache_dir=tmp_path,
                                    report=lines.append, runner=runner,
                                    result_type=result_type)
            cached = run_experiments(configs, cache_dir=tmp_path,
                                     report=lines.append, runner=runner,
                                     result_type=result_type)
            assert fresh == cached
            assert all(type(r) is result_type for r in cached)
            assert [r.seed for r in cached] == list(seeds)
            assert sum(": cached (" in line for line in lines) == len(seeds)
            replayed[runner] = cached
        assert replayed[run_chaos][1] == run_chaos(chaos, 1)
        [cut_run] = replayed[run_powercut]
        assert cut_run.cuts
        assert all(type(c) is CutOutcome for c in cut_run.cuts)
        assert cut_run.extras["records_dropped"] == sum(
            c.dropped_records for c in cut_run.cuts)
        [soak_run] = replayed[run_soak]
        assert soak_run.windows
        assert all(type(w) is HealthWindow for w in soak_run.windows)


#: Per seed of ROLLBACK_PLAN, the replica that records
#: ``rollback_detected`` (None: the plan mounts no attack).
DETECTORS = {
    "damysus-r": {0: 1, 1: 0, 2: 2, 3: 2, 4: 0, 5: 1, 6: 0, 7: 0},
    "oneshot-r": {0: 2, 1: 0, 2: 2, 3: 2, 4: 0, 5: 1, 6: 1, 7: None},
}


def run_rollback_plan(protocol: str, seed: int, monkeypatch,
                      plan=ROLLBACK_PLAN):
    """One ``plan`` campaign: its result, the replicas that recorded
    ``rollback_detected`` (in order), and the cluster it ran on."""
    from repro.faults import chaos
    from repro.sim.trace import TraceRecorder

    detected: list = []
    record = TraceRecorder.record

    def spy(self, time, kind, node=None, **detail):
        if kind == "rollback_detected":
            detected.append(node)
        record(self, time, kind, node, **detail)

    deployments: list = []
    build = chaos.build_deployment

    def keep(*args, **kwargs):
        deployments.append(build(*args, **kwargs))
        return deployments[-1]

    monkeypatch.setattr(TraceRecorder, "record", spy)
    monkeypatch.setattr(chaos, "build_deployment", keep)
    result = run_chaos(ChaosSpec(protocol=protocol, **plan), seed)
    return result, detected, deployments[0].cluster


@pytest.mark.parametrize("protocol", sorted(DETECTORS))
@pytest.mark.parametrize("seed", range(8))
def test_the_rolled_back_victim_detects_the_rollback(protocol, seed,
                                                     monkeypatch):
    """The -R counter catches every mounted rollback on the victim itself,
    once; no other replica records one."""
    result, detected, _ = run_rollback_plan(protocol, seed, monkeypatch)
    victim = DETECTORS[protocol][seed]
    assert detected == ([] if victim is None else [victim])
    assert result.rollbacks_mounted == len(detected)
    spec = ChaosSpec(protocol=protocol, **ROLLBACK_PLAN)
    assert detected == sorted({c.node for c in generate_campaign(
        spec, seed).faults.crashes if c.rollback})


@pytest.mark.parametrize("protocol,seed,victim", [("damysus-r", 26, 4),
                                                  ("oneshot-r", 5, 3)])
def test_a_victim_crashed_twice_counts_both_rollbacks(protocol, seed, victim,
                                                      monkeypatch):
    """The default plan crashes the halted victim again: it reboots under
    a fresh attacker and detects the rollback a second time, and both
    episodes' attacks are counted."""
    result, detected, _ = run_rollback_plan(protocol, seed, monkeypatch,
                                            plan=dict(f=2))
    assert detected == [victim, victim]
    assert result.rollbacks_mounted == len(detected)


@pytest.mark.parametrize("protocol", sorted(DETECTORS))
@pytest.mark.parametrize("seed", range(8))
def test_a_detected_rollback_halts_the_victim(protocol, seed, monkeypatch):
    """The victim fail-stops: HALTED for the rest of the run, neither
    RUNNING on a refused checker nor RECOVERING forever, and every
    invariant holds on both protocols."""
    result, detected, cluster = run_rollback_plan(protocol, seed, monkeypatch)
    assert result.ok, result.violations
    halted = [n.node_id for n in cluster.nodes
              if n.status is NodeStatus.HALTED]
    assert halted == detected
