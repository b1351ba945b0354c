"""Unit tests for the soak harness: health signatures, the degradation-
cycle detector, the SLO reconvergence gate, scenario plan generation,
pacemaker storm damping (decay + nudge), and windowed latency stats."""

import pytest

from repro.consensus.pacemaker import Pacemaker
from repro.errors import ConfigurationError
from repro.faults.scenarios import (LEADER, SCENARIOS, SoakCrash,
                                    build_plan)
from repro.harness.metrics import WindowedLatencyStats
from repro.harness.soak import (HealthWindow, SoakSpec, _bucket,
                                detect_degradation_cycle,
                                find_reconvergence, meets_slo)
from repro.sim.loop import Simulator
from repro.sim.process import Process


def window(index, *, height_delta=1, vc=0, rec=0, recovering=0, drops=0,
           offered=100, committed=100, p99=5.0):
    return HealthWindow(
        index=index, start_ms=index * 250.0, duration_ms=250.0,
        phase="reconverge", offered=offered, committed=committed,
        height=0, height_delta=height_delta, view_changes=vc,
        recoveries=rec, recovering=recovering, mempool_depth=0,
        drops=drops, p50=1.0, p99=p99, p999=p99)


class TestBucketsAndSignatures:
    def test_bucket_log_quantization(self):
        assert _bucket(0) == 0
        assert _bucket(1) == 1
        assert _bucket(2) == 2
        assert _bucket(3) == 2
        assert _bucket(4) == 3
        assert _bucket(1 << 20) == 7  # capped

    def test_signature_robust_to_jitter_in_counts(self):
        # 2 vs 3 view changes land in the same log bucket -> same
        # signature; 0 vs 2 do not.
        assert window(0, vc=2).signature() == window(1, vc=3).signature()
        assert window(0, vc=0).signature() != window(1, vc=2).signature()


class TestCycleDetector:
    def test_no_cycle_when_height_progresses(self):
        windows = [window(i, height_delta=1, vc=4) for i in range(12)]
        assert detect_degradation_cycle(windows, 0, 6) is None

    def test_no_cycle_when_idle(self):
        # Zero progress but zero activity = quiet drain, not a cycle.
        windows = [window(i, height_delta=0, committed=0, offered=0)
                   for i in range(12)]
        assert detect_degradation_cycle(windows, 0, 6) is None

    def test_period_one_cycle_detected(self):
        windows = [window(i, height_delta=0, vc=4, drops=50)
                   for i in range(8)]
        found = detect_degradation_cycle(windows, 0, 6)
        assert found == (0, 1)

    def test_period_two_cycle_detected(self):
        windows = [window(i, height_delta=0,
                          vc=(8 if i % 2 else 1), drops=10)
                   for i in range(10)]
        found = detect_degradation_cycle(windows, 0, 6)
        assert found is not None
        assert found[1] == 2

    def test_aperiodic_activity_not_flagged(self):
        # Distinct, non-repeating signatures: busy but not cycling.
        vcs = [1, 2, 4, 8, 16, 32, 64, 100]
        windows = [window(i, height_delta=0, vc=vcs[i], recovering=1)
                   for i in range(8)]
        assert detect_degradation_cycle(windows, 0, 8) is None

    def test_start_index_excludes_pressure_windows(self):
        windows = [window(i, height_delta=0, vc=4, drops=50)
                   for i in range(8)]
        assert detect_degradation_cycle(windows, 0, 6) is not None
        assert detect_degradation_cycle(windows, 6, 6) is None  # too few left

    def test_progress_anywhere_in_span_breaks_it(self):
        windows = [window(i, height_delta=(1 if i == 3 else 0), vc=4)
                   for i in range(6)]
        assert detect_degradation_cycle(windows, 0, 6) is None


class TestReconvergenceGate:
    def test_meets_slo_commit_fraction(self):
        assert meets_slo(window(0, offered=100, committed=60), 0.5, 80.0)
        assert not meets_slo(window(0, offered=100, committed=40), 0.5, 80.0)

    def test_meets_slo_p99_bound_only_with_samples(self):
        assert not meets_slo(window(0, p99=200.0), 0.5, 80.0)
        # p99 == 0 means no samples landed; a fully-committed quiet
        # window still passes (catch-up windows drain old txs).
        assert meets_slo(window(0, p99=0.0), 0.5, 80.0)

    def test_find_reconvergence_first_sustained_streak(self):
        bad = window(0, offered=100, committed=0)
        good = window(0)
        seq = [bad, bad, good, good, bad, good, good, good, good]
        windows = [window(i, offered=w.offered, committed=w.committed,
                          p99=w.p99) for i, w in enumerate(seq)]
        # Sustain 3: the streak at indices 5..8 qualifies, 2..3 does not.
        assert find_reconvergence(windows, 0, 3, 0.5, 80.0) == 5

    def test_find_reconvergence_none_when_never_sustained(self):
        windows = [window(i, offered=100,
                          committed=(100 if i % 2 else 0))
                   for i in range(12)]
        assert find_reconvergence(windows, 0, 3, 0.5, 80.0) is None

    def test_release_index_respected(self):
        windows = [window(i) for i in range(10)]
        assert find_reconvergence(windows, 4, 3, 0.5, 80.0) == 4


class TestScenarioPlans:
    def test_catalog_and_unknown_scenario(self):
        assert set(SCENARIOS) == {"sub-quorum", "leader-storm",
                                  "flash-crowd", "recovery-under-load",
                                  "rollback-loop"}
        with pytest.raises(ConfigurationError):
            build_plan("meteor-strike", n=3, f=1, quorum=2,
                       pressure_start_ms=0, pressure_end_ms=100, seed=0,
                       has_recovery=True, clients=10)

    def _plan(self, scenario, seed=0, **kw):
        kw.setdefault("n", 3)
        kw.setdefault("f", 1)
        kw.setdefault("quorum", 2)
        kw.setdefault("pressure_start_ms", 1000.0)
        kw.setdefault("pressure_end_ms", 5000.0)
        kw.setdefault("has_recovery", True)
        kw.setdefault("clients", 1000)
        return build_plan(scenario, seed=seed, **kw)

    def test_plans_deterministic_per_seed(self):
        assert self._plan("sub-quorum", seed=3) == self._plan("sub-quorum", seed=3)
        assert self._plan("leader-storm", seed=1) != self._plan("leader-storm", seed=2)

    def test_sub_quorum_shape(self):
        plan = self._plan("sub-quorum")
        # f crashed + 1 isolated; crashes unguarded; reboots staggered
        # strictly after the partition heals.
        assert len(plan.crashes) == 1
        assert len(plan.partitions) == 1
        assert all(not c.guarded for c in plan.crashes)
        heal = plan.partitions[0].until_ms
        assert all(c.reboot_at_ms > heal for c in plan.crashes)
        victims = {c.node for c in plan.crashes} | set(plan.partitions[0].group)
        assert len(victims) == 2  # distinct

    def test_leader_storm_targets_leader_inside_pressure(self):
        plan = self._plan("leader-storm")
        assert plan.crashes
        assert all(c.node == LEADER for c in plan.crashes)
        assert all(1000.0 <= c.at_ms and c.reboot_at_ms < 5000.0
                   for c in plan.crashes)

    def test_flash_crowd_has_no_replica_faults(self):
        plan = self._plan("flash-crowd")
        assert not plan.crashes and not plan.partitions
        assert plan.flash_crowds and len(plan.churn) == 2
        assert "drops" in plan.require

    def test_rollback_loop_requires_recovery_only_when_available(self):
        with_rec = self._plan("rollback-loop", has_recovery=True)
        without = self._plan("rollback-loop", has_recovery=False)
        assert all(c.rollback for c in with_rec.crashes)
        assert "recoveries" in with_rec.require
        assert "recoveries" not in without.require
        assert "view-changes" not in without.require

    def test_crash_event_validation_fields(self):
        c = SoakCrash(at_ms=1.0, node=0, reboot_at_ms=2.0)
        assert c.guarded and not c.rollback


class TestPacemakerDamping:
    def _pm(self, **kw):
        sim = Simulator(seed=0)
        p = Process(sim, "p")
        pm = Pacemaker(p, base_timeout_ms=10.0, on_timeout=lambda v: None,
                       **kw)
        return sim, pm

    def test_decay_steps_down_instead_of_reset(self):
        _, pm = self._pm(decay=1)
        pm._consecutive_timeouts = 4
        pm.progress()
        assert pm._consecutive_timeouts == 3
        assert pm.backoff_decays == 1
        pm.progress()
        assert pm._consecutive_timeouts == 2

    def test_zero_decay_hard_resets(self):
        _, pm = self._pm(decay=0)
        pm._consecutive_timeouts = 4
        pm.progress()
        assert pm._consecutive_timeouts == 0
        assert pm.backoff_decays == 0

    def test_progress_on_zero_backoff_is_noop(self):
        _, pm = self._pm(decay=1)
        pm.progress()
        assert pm.backoff_decays == 0

    def test_peak_backoff_high_water_mark(self):
        sim, pm = self._pm(max_backoff_doublings=2)
        pm._on_timeout = lambda v: pm.rearm()  # keep the storm going
        pm.view_started(1)
        sim.run(until=500.0)
        assert pm.peak_backoff >= 3
        assert pm.current_timeout_ms == 40.0  # capped at 2 doublings

    def test_nudge_shortens_bloated_timer(self):
        sim, pm = self._pm(jitter=0.0)
        pm._consecutive_timeouts = 5  # armed timeout = 320 ms
        pm.view_started(1)
        assert pm.deadline == pytest.approx(320.0)
        pm.nudge()
        assert pm.backoff_nudges == 1
        assert pm.deadline == pytest.approx(10.0)

    def test_nudge_never_extends(self):
        # Remaining below base: nudging again must not push the deadline.
        sim, pm = self._pm(jitter=0.0)
        pm.view_started(1)  # armed at base (10 ms)
        deadline = pm.deadline
        for _ in range(5):
            pm.nudge()
        assert pm.deadline == deadline
        assert pm.backoff_nudges == 0

    def test_nudge_noop_when_disarmed(self):
        _, pm = self._pm(jitter=0.0)
        pm.nudge()
        assert pm.backoff_nudges == 0


class TestWindowedLatencyStats:
    def test_bucketing_by_arrival_time(self):
        stats = WindowedLatencyStats(100.0)
        stats.add(5.0, at_ms=50.0)
        stats.add(7.0, at_ms=99.0)
        stats.add(9.0, at_ms=100.0)
        assert stats.window(0).count == 2
        assert stats.window(1).count == 1
        assert stats.window(2).count == 0  # empty shared default
        assert stats.indices() == [0, 1]
        assert stats.count == 3

    def test_add_many_single_bucket(self):
        stats = WindowedLatencyStats(100.0)
        stats.add_many([1.0, 2.0, 3.0], at_ms=250.0)
        stats.add_many([], at_ms=260.0)
        assert stats.window(2).count == 3
        assert stats.window(2).p50 == 2.0

    def test_window_width_validated(self):
        with pytest.raises(ValueError):
            WindowedLatencyStats(0.0)


class TestSoakSpec:
    def test_phase_boundaries(self):
        spec = SoakSpec(warmup_ms=100.0, pressure_ms=200.0,
                        reconverge_budget_ms=300.0, settle_ms=400.0)
        assert spec.duration_ms == 1000.0
        assert spec.release_ms == 300.0
        assert spec.phase_of(0.0) == "warmup"
        assert spec.phase_of(100.0) == "pressure"
        assert spec.phase_of(300.0) == "reconverge"
        assert spec.phase_of(600.0) == "settle"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SoakSpec(scenario="nope")
        with pytest.raises(ConfigurationError):
            SoakSpec(pressure_ms=0.0)
        with pytest.raises(ConfigurationError):
            SoakSpec(cycle_windows=1)
