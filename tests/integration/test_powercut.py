"""Integration tests: the power-cut explorer (repro.faults.powercut).

Small specs keep this fast: each test replays only a couple of cuts, and
the workload is the same seeded open-loop generator the chaos layer uses.
``make powercut`` runs the full-size campaign.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults.powercut import PowercutSpec, run_powercut, sample_cuts
from repro.storage import PersistencePoint


def _small(**overrides) -> PowercutSpec:
    defaults = dict(duration_ms=1200.0, quiesce_ms=500.0, warmup_ms=150.0,
                    max_cuts=3, reorder_cuts=1)
    defaults.update(overrides)
    return PowercutSpec(**defaults)


class TestExplorer:
    @pytest.mark.parametrize("protocol", ["achilles", "minbft", "damysus-r"])
    def test_every_sampled_cut_recovers_to_the_durable_prefix(self, protocol):
        result = run_powercut(_small(protocol=protocol), seed=1)
        assert result.points_eligible > 0, "explorer never engaged"
        assert result.cuts, "no cut was replayed"
        assert all(c.fired for c in result.cuts)
        assert result.ok, result.violations
        # Every replay rebooted the victim into a state at or above the
        # durable floor captured at the cut.
        assert all(c.final_height >= c.durable_floor for c in result.cuts)

    def test_counter_protocol_enumerates_atomic_points(self):
        result = run_powercut(_small(protocol="damysus-r", max_cuts=4),
                              seed=1)
        assert result.ok, result.violations
        assert result.extras["point_kinds"].get("atomic", 0) > 0

    def test_exploration_is_deterministic(self):
        spec = _small(max_cuts=2)
        a = run_powercut(spec, seed=3)
        b = run_powercut(spec, seed=3)
        assert a.digest == b.digest
        assert [c.digest for c in a.cuts] == [c.digest for c in b.cuts]

    def test_different_seeds_explore_different_runs(self):
        spec = _small(max_cuts=2)
        a = run_powercut(spec, seed=1)
        b = run_powercut(spec, seed=2)
        assert a.digest != b.digest

    def test_idle_run_fails_engagement(self):
        # No client load and a pacemaker that never fires inside the run:
        # the victim reaches no persistence point in the window, and the
        # explorer must say so rather than vacuously pass.
        spec = _small(base_rate_tps=0.001, base_timeout_ms=60_000.0)
        result = run_powercut(spec, seed=1)
        assert not result.ok
        assert any("[powercut-engagement]" in v for v in result.violations)
        assert not result.cuts

    def test_snapshot_vault_rides_along(self):
        spec = _small(protocol="achilles", max_cuts=2,
                      snapshot_interval=8, duration_ms=1500.0)
        result = run_powercut(spec, seed=1)
        assert result.ok, result.violations
        assert result.points_eligible > 0


class TestJournalOffNegativeControl:
    @pytest.mark.parametrize("protocol", ["achilles", "minbft"])
    def test_every_cut_trips_durable_prefix(self, protocol):
        spec = _small(protocol=protocol, journal_off=True, max_cuts=2,
                      expect_violations=("durable-prefix",))
        result = run_powercut(spec, seed=1)
        assert result.cuts, "no cut was replayed"
        # ok means: durable-prefix tripped on EVERY cut and nothing else
        # broke — the control both fired and stayed clean of side damage.
        assert result.ok, result.violations

    def test_journal_off_without_expectation_rejected(self):
        with pytest.raises(ConfigurationError):
            PowercutSpec(journal_off=True)


class TestSampling:
    def _pt(self, index, kind, at_ms):
        return PersistencePoint(index=index, kind=kind, owner="store",
                                op="commit", at_ms=at_ms)

    def test_stratified_across_kinds(self):
        spec = _small(max_cuts=4, reorder_cuts=0)
        points = [self._pt(i, kind, 200.0 + i)
                  for i, kind in enumerate(
                      ["write", "fsync", "commit", "atomic"] * 10)]
        chosen = sample_cuts(spec, points)
        assert len(chosen) == 4
        assert {p.kind for p, _ in chosen} == \
            {"write", "fsync", "commit", "atomic"}

    def test_reorder_override_lands_on_commit_points(self):
        spec = _small(max_cuts=4, reorder_cuts=1)
        points = [self._pt(i, kind, 200.0 + i)
                  for i, kind in enumerate(
                      ["write", "fsync", "commit", "atomic"] * 10)]
        chosen = sample_cuts(spec, points)
        overrides = [(p.kind, k) for p, k in chosen if k is not None]
        assert overrides and all(pk in ("commit", "atomic")
                                 for pk, _ in overrides)
        assert all(k == "reorder" for _, k in overrides)

    def test_window_filter(self):
        spec = _small(max_cuts=4)
        points = [self._pt(0, "commit", 10.0),    # before warmup
                  self._pt(1, "commit", 400.0),   # inside
                  self._pt(2, "commit", 1190.0)]  # inside quiesce tail
        chosen = sample_cuts(spec, points)
        assert [p.index for p, _ in chosen] == [1]

    def test_journal_off_samples_fsync_points_only(self):
        spec = _small(journal_off=True, max_cuts=4,
                      expect_violations=("durable-prefix",))
        points = [self._pt(i, kind, 200.0 + i)
                  for i, kind in enumerate(["write", "fsync", "commit"] * 5)]
        chosen = sample_cuts(spec, points)
        assert chosen and all(p.kind == "fsync" for p, _ in chosen)
        assert all(k is None for _, k in chosen)



class TestWorker:
    def test_config_roundtrip(self):
        """A power-cut config ``{"spec": spec, "seed": seed}`` runs through
        the harness as ``run_powercut``'s keyword arguments."""
        from repro.faults.powercut import PowercutResult
        from repro.harness.parallel import run_experiments

        spec = PowercutSpec(protocol="minbft", duration_ms=1200.0,
                            quiesce_ms=500.0, warmup_ms=150.0, max_cuts=2)
        [result] = run_experiments([{"spec": spec, "seed": 1}],
                                   runner=run_powercut,
                                   result_type=PowercutResult)
        assert result.protocol == "minbft" and result.seed == 1
        assert result.ok, result.violations
