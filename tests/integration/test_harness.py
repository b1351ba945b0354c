"""Harness-level tests: run_experiment across the registry, analysis, and
the experiment definitions behind each figure/table."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.harness.analysis import STATIC_FACTS, measure_protocol
from repro.harness.runner import PROTOCOLS, run_experiment


class TestRunExperiment:
    @pytest.mark.parametrize("protocol", [
        "achilles", "damysus", "damysus-r", "oneshot", "oneshot-r",
        "flexibft", "achilles-c", "braft",
    ])
    def test_every_protocol_runs_and_commits(self, protocol):
        result = run_experiment(protocol, f=1, network="LAN", batch_size=50,
                                payload_size=64, duration_ms=500,
                                warmup_ms=100, seed=11)
        assert result.blocks_committed > 0
        assert result.throughput_ktps > 0
        assert result.commit_latency_ms > 0
        assert result.e2e_latency_ms >= result.commit_latency_ms

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("pbft", f=1)

    def test_unknown_network_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("achilles", f=1, network="MOON")

    def test_flexibft_committee_is_3f_plus_1(self):
        result = run_experiment("flexibft", f=2, network="LAN", batch_size=50,
                                payload_size=64, duration_ms=400,
                                warmup_ms=100, seed=11)
        assert result.n == 7

    def test_counter_write_latency_scales_damysus_r(self):
        """Fig. 5's mechanism in miniature: doubling the write latency
        roughly halves Damysus-R's throughput."""
        slow = run_experiment("damysus-r", f=1, counter_write_ms=40.0,
                              batch_size=50, payload_size=64,
                              duration_ms=1500, warmup_ms=200, seed=11)
        fast = run_experiment("damysus-r", f=1, counter_write_ms=10.0,
                              batch_size=50, payload_size=64,
                              duration_ms=1500, warmup_ms=200, seed=11)
        ratio = fast.throughput_ktps / max(1e-9, slow.throughput_ktps)
        assert 2.0 <= ratio <= 5.0

    def test_zero_counter_matches_plain_variant(self):
        r_at_zero = run_experiment("damysus-r", f=1, counter_write_ms=0.0,
                                   batch_size=50, payload_size=64,
                                   duration_ms=600, warmup_ms=100, seed=11)
        plain = run_experiment("damysus", f=1, batch_size=50, payload_size=64,
                               duration_ms=600, warmup_ms=100, seed=11)
        assert r_at_zero.throughput_ktps == pytest.approx(
            plain.throughput_ktps, rel=0.05)

    def test_open_loop_mode_tracks_offered_load(self):
        result = run_experiment("achilles", f=1, network="LAN", batch_size=50,
                                payload_size=64, duration_ms=1500,
                                warmup_ms=300, seed=11,
                                offered_load_tps=2000.0)
        # Achieved ≈ offered well below saturation.
        assert result.throughput_ktps == pytest.approx(2.0, rel=0.25)


class TestAnalysis:
    def test_registry_contains_all_protocols(self):
        import repro.baselines  # noqa: F401  (registration side effect)
        import repro.core.registry  # noqa: F401

        assert {"achilles", "damysus", "damysus-r", "oneshot", "oneshot-r",
                "flexibft", "achilles-c", "braft"} <= set(PROTOCOLS)

    def test_measured_profile_matches_table1(self):
        profile = measure_protocol("achilles", f=2)
        assert profile.threshold == "2f+1"
        assert profile.rollback_resistant
        assert profile.communication_steps == 4
        assert profile.counter_writes_per_commit == 0.0
        n = 5
        assert profile.messages_per_commit <= 4 * n

    def test_damysus_r_counter_writes_about_two_per_node(self):
        profile = measure_protocol("damysus-r", f=2)
        n = 5
        # two checker calls per node per view → ≈ 2n writes per commit
        assert 1.2 * n <= profile.counter_writes_per_commit <= 3.0 * n

    def test_oneshot_r_counter_writes_about_one_per_node(self):
        profile = measure_protocol("oneshot-r", f=2)
        n = 5
        assert 0.6 * n <= profile.counter_writes_per_commit <= 1.8 * n

    def test_flexibft_counter_writes_leader_only(self):
        profile = measure_protocol("flexibft", f=2)
        # one write per committed block, regardless of committee size
        assert 0.5 <= profile.counter_writes_per_commit <= 1.5

    def test_static_facts_cover_tee_protocols(self):
        assert STATIC_FACTS["achilles"] == ("2f+1", 4, True, True)
        assert STATIC_FACTS["damysus"][1] == 6
        assert STATIC_FACTS["flexibft"][0] == "3f+1"


class TestExperimentDefinitions:
    def test_table4_counter_rows(self):
        from repro.harness.experiments import table4_counter_latencies

        rows = {r["counter"]: r for r in table4_counter_latencies(samples=50)}
        assert rows["TPM"]["write_ms"] == pytest.approx(97, abs=5)
        assert rows["SGX"]["write_ms"] == pytest.approx(160, abs=8)
        assert 8 <= rows["Narrator_LAN"]["write_ms"] <= 10
        assert 40 <= rows["Narrator_WAN"]["write_ms"] <= 50
        assert rows["TPM"]["read_ms"] == pytest.approx(35, abs=4)

    def test_fig5_zero_column_is_no_prevention(self):
        from repro.harness.experiments import sweep

        results = sweep("counter_write_ms", (0, 40), protocols=("oneshot-r",),
                        network="LAN", f=1, seed=1)
        zero, forty = results
        assert zero.extras["counter_write_ms"] == 0
        assert zero.throughput_ktps > 3 * forty.throughput_ktps
