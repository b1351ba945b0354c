"""Chaos campaigns: determinism, f-bound discipline, and clean runs.

The acceptance bar for the chaos harness is strict: a campaign is a pure
function of ``(spec, seed)`` (same seed → byte-identical plan *and*
byte-identical result digest), no generated plan ever exceeds the
deployment's fault budget, and every supported protocol survives the
composed crash/rollback/partition/churn faults with zero invariant
violations.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults.chaos import ChaosSpec, generate_campaign, run_chaos
from repro.faults.crash import CrashRebootSchedule


SMOKE = ChaosSpec(duration_ms=2200.0, quiesce_ms=900.0, warmup_ms=150.0)


class TestCampaignGeneration:
    def test_same_seed_same_campaign(self):
        spec = ChaosSpec(protocol="achilles", f=2)
        assert generate_campaign(spec, 11) == generate_campaign(spec, 11)

    def test_different_seeds_differ(self):
        spec = ChaosSpec(protocol="achilles", f=2)
        plans = {generate_campaign(spec, seed).crash_events for seed in range(8)}
        assert len(plans) > 1

    def test_f_bound_respected(self):
        """No generated plan ever has more than f nodes down at once —
        even counting a rollback victim as down for the rest of the run."""
        for seed in range(25):
            campaign = generate_campaign(
                ChaosSpec(protocol="achilles", f=1, crashes=6, rollbacks=2), seed)
            schedule = CrashRebootSchedule()
            for node, at, downtime in campaign.crash_events:
                if node in campaign.rollback_victims:
                    downtime = campaign.spec.duration_ms - at
                schedule.add(node, at, downtime)
            assert schedule.max_concurrent() <= 1, (seed, campaign.crash_events)

    def test_faults_end_before_quiesce(self):
        spec = ChaosSpec(protocol="achilles", f=2, crashes=5, partitions=3)
        quiesce_at = spec.duration_ms - spec.quiesce_ms
        for seed in range(10):
            campaign = generate_campaign(spec, seed)
            for _node, at, downtime in campaign.crash_events:
                assert at + downtime <= quiesce_at
            for window in campaign.partitions:
                assert window.until_ms <= quiesce_at
            for window in campaign.delays:
                assert window.until_ms <= quiesce_at

    def test_partitions_isolate_minorities_only(self):
        for seed in range(10):
            campaign = generate_campaign(ChaosSpec(protocol="achilles", f=2), seed)
            for window in campaign.partitions:
                assert len(window.group) <= campaign.spec.f

    def test_unprotected_protocols_get_no_rollback(self):
        """Plain Damysus is genuinely rollback-vulnerable; attacking it
        would demonstrate the known break, not find a regression."""
        for seed in range(10):
            campaign = generate_campaign(
                ChaosSpec(protocol="damysus", f=1, rollbacks=3), seed)
            assert campaign.rollback_victims == ()

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
            if generate_campaign(spec, seed).rollback_victims:
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
        [result] = run_experiments([{"spec": spec, "seed": 2}], workers=1,
                                   runner=run_chaos, result_type=ChaosResult)
        assert result.seed == 2 and result.protocol == "achilles"
        assert result == run_chaos(spec, 2)

    def test_parallel_harness_integration(self, tmp_path):
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
        replayed = {}
        for runner, result_type, spec, seeds in (
                (run_chaos, ChaosResult, chaos, (0, 1)),
                (run_powercut, PowercutResult, powercut, (1,)),
                (run_soak, SoakResult, soak, (1,))):
            configs = [{"spec": spec, "seed": seed} for seed in seeds]
            lines: list[str] = []
            fresh = run_experiments(configs, workers=1, cache_dir=tmp_path,
                                    report=lines.append, runner=runner,
                                    result_type=result_type)
            cached = run_experiments(configs, workers=1, cache_dir=tmp_path,
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
