"""Sharded deployment end to end: 2PC atomicity, chaos, determinism.

The acceptance bar mirrors the single-group chaos suite: campaigns are
pure functions of ``(spec, seed)``, the defended configuration survives a
*whole-shard* crash landing mid-2PC with zero invariant violations, and
the negative control (participant timeout→abort disabled) demonstrably
trips ``cross-shard-atomicity`` — and nothing else.
"""

from __future__ import annotations

import pytest

from repro.client.workload import ShardedOpenLoopGenerator
from repro.errors import ConfigurationError
from repro.shard import (INVARIANT, ShardChaosSpec, ShardedDeployment,
                         run_shard_chaos, run_shard_chaos_seed,
                         run_shard_point)

# Short defended campaign (< 25 s wall): downtime below the abort-retry
# span so most aborts land on reboot, TTL 1000 blocks so the stragglers
# deterministically expire before end of run (see docs/SHARDING.md).
SMOKE = ShardChaosSpec(duration_ms=4000.0, quiesce_ms=1200.0,
                       downtime_ms=800.0, rate_tps=800.0,
                       txn_ttl_blocks=1000)


class TestHappyPath:
    def test_two_shards_commit_cross_shard_txns_atomically(self):
        row = run_shard_point(shards=2, duration_ms=900.0, rate_tps=1200.0,
                              cross_fraction=0.2, quiesce_ms=400.0)
        # run_shard_point already ran assert_ok(): monitors + atomicity.
        assert row["txns_committed"] > 10
        assert row["txs_committed"] > 200
        assert row["router_failures"] == 0

    def test_single_shard_runs_without_cross_traffic(self):
        row = run_shard_point(shards=1, duration_ms=700.0, rate_tps=1000.0,
                              quiesce_ms=300.0)
        assert row["txns_committed"] == 0
        assert row["txs_committed"] > 100

    def test_committed_writes_land_on_the_owning_shard(self):
        deployment = ShardedDeployment(shards=2, seed=11, batch_size=20)
        txns = deployment.txns
        outcomes = []
        writes = {"ka": "1", "kb": "2", "kc": "3", "kd": "4"}
        deployment.sim.schedule_at(
            50.0, lambda: txns.begin(writes, on_done=outcomes.append))
        deployment.start()
        deployment.run(2000.0)
        deployment.finalize()
        assert outcomes == ["committed"]
        for key, value in writes.items():
            shard = deployment.shard_map.shard_of(key)
            for machine in deployment.shard_machines(shard):
                assert machine.get(key) == value
        deployment.assert_ok()

    def test_conflicting_txns_one_wins_one_aborts(self):
        deployment = ShardedDeployment(shards=2, seed=12, batch_size=20)
        txns = deployment.txns
        outcomes = []

        def race() -> None:
            txns.begin({"ka": "x", "kz": "1"}, on_done=outcomes.append)
            txns.begin({"ka": "y", "kq": "2"}, on_done=outcomes.append)

        deployment.sim.schedule_at(50.0, race)
        deployment.start()
        deployment.run(2500.0)
        deployment.finalize()
        assert sorted(outcomes) == ["aborted", "committed"]
        deployment.assert_ok()


class TestShardChaos:
    def test_defended_crash_sweep_holds_atomicity(self):
        """A whole-shard crash mid-2PC: every transaction converges and
        the atomicity audit passes on multiple seeds."""
        for seed in (0, 1):
            result = run_shard_chaos(SMOKE, seed=seed)
            assert result.violations == [], (seed, result.violations)
            assert result.in_flight_at_fault > 0
            assert result.committed_txns > 50

    def test_partition_fault_holds_atomicity(self):
        result = run_shard_chaos(
            ShardChaosSpec(duration_ms=4000.0, quiesce_ms=1200.0,
                           downtime_ms=800.0, rate_tps=800.0,
                           txn_ttl_blocks=1000, fault="partition"),
            seed=0)
        assert result.violations == []
        assert result.committed_txns > 50

    def test_negative_control_trips_atomicity(self):
        """TTL defense off + a crash window longer than the abort-retry
        span: locks wedge forever and the audit MUST report it."""
        spec = ShardChaosSpec(duration_ms=4000.0, quiesce_ms=1200.0,
                              downtime_ms=1200.0, rate_tps=800.0,
                              txn_ttl_blocks=None,
                              expect_violations=(INVARIANT,))
        result = run_shard_chaos(spec, seed=0)
        # Campaign "passes" as a negative control: the expected invariant
        # tripped, nothing unexpected did.
        assert result.violations == [], result.violations
        assert result.extras["expected_tripped"] == [INVARIANT]

    def test_same_seed_same_digest(self):
        a = run_shard_chaos(SMOKE, seed=0)
        b = run_shard_chaos(SMOKE, seed=0)
        assert a.digest == b.digest
        assert a.committed_txns == b.committed_txns
        assert a.violations == b.violations

    def test_worker_entry_point_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            run_shard_chaos_seed({"seed": 0, "not_a_field": 1})

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ShardChaosSpec(shards=0)
        with pytest.raises(ConfigurationError):
            ShardChaosSpec(fault="meteor")
        with pytest.raises(ConfigurationError):
            ShardChaosSpec(shards=1)  # cross traffic needs >= 2
        with pytest.raises(ConfigurationError):
            ShardChaosSpec(duration_ms=1000.0, quiesce_ms=1000.0,
                           cross_fraction=0.0, shards=1)
        with pytest.raises(ConfigurationError):
            # Fault window must end before the quiesce tail.
            ShardChaosSpec(duration_ms=6000.0, downtime_ms=3000.0,
                           fault_at_ms=1000.0, quiesce_ms=2500.0)


class TestPassivity:
    def test_single_group_paths_unchanged(self):
        """Building a sharded deployment must not perturb single-cluster
        runs: the golden digests pin this, but assert the root cause here
        — un-prefixed RNG tags and untouched build_cluster defaults."""
        from repro.harness.runner import run_experiment

        before = run_experiment("achilles", f=1, network="LAN",
                                duration_ms=400.0, warmup_ms=100.0, seed=7)
        ShardedDeployment(shards=2, seed=7)  # construct alongside
        after = run_experiment("achilles", f=1, network="LAN",
                               duration_ms=400.0, warmup_ms=100.0, seed=7)
        assert (before.sim_events, before.txs_committed,
                before.blocks_committed, before.throughput_ktps) == \
               (after.sim_events, after.txs_committed,
                after.blocks_committed, after.throughput_ktps)

    def test_shards_draw_decorrelated_streams(self):
        deployment = ShardedDeployment(shards=2, seed=3)
        a = deployment.clusters[0].network._rng
        b = deployment.clusters[1].network._rng
        assert [a.random() for _ in range(8)] != \
               [b.random() for _ in range(8)]

    def test_shard_scope_is_the_one_simulator_under_another_rng_name(self):
        import random

        from repro.shard import ShardScope
        from repro.sim.loop import Simulator

        sim = Simulator(seed=5)
        scope = ShardScope(sim, "shard1")
        # Stream names are pinned by the shard-chaos goldens.
        assert scope.fork_rng("network").random() == \
            random.Random("5/shard1/network").random()
        assert sim.fork_rng("network").random() == \
            random.Random("5/network").random()
        # One clock, one queue, one event count — through either name.
        fired = []
        scope.schedule_at_fast(2.0, fired.append, "via scope")
        sim.schedule_fast(1.0, fired.append, "via sim")
        assert scope.queue is sim.queue and scope.obs is sim.obs
        sim.run(until=5.0)
        assert fired == ["via sim", "via scope"]
        assert scope.now == sim.now == 5.0
        scope.now = 7.0
        assert sim.now == 7.0 and scope.events_processed == 2


class TestRollbackPreventionWiring:
    """A sharded ``-R`` deployment is wired by the same registry decision
    as every other runner: its trusted components get the persistent
    counter, and the comparison the paper makes shows up under 2PC."""

    def test_r_variant_replicas_get_a_counter(self):
        deployment = ShardedDeployment(protocol="damysus-r", shards=2)
        assert all(node.config.counter_factory is not None
                   for cluster in deployment.clusters
                   for node in cluster.nodes)
        plain = ShardedDeployment(protocol="achilles", shards=2)
        assert plain.clusters[0].nodes[0].config.counter_factory is None

    def test_r_variant_pays_the_counter_write_under_2pc(self):
        point = dict(f=1, duration_ms=6000.0, quiesce_ms=3000.0,
                     rate_tps=300.0, cross_fraction=0.1)
        with_counter = run_shard_point(2, protocol="damysus-r", **point)
        without = run_shard_point(2, protocol="damysus", **point)
        # 20 ms counter writes on the ordering path vs none.
        assert with_counter["e2e_latency_p50_ms"] >= 40.0
        assert without["e2e_latency_p50_ms"] < 10.0
        assert with_counter["txns_committed"] > 0


class TestGeneratorEngagement:
    def test_generator_routes_by_shard_and_stops_cross(self):
        deployment = ShardedDeployment(shards=2, seed=4, batch_size=20)
        generator = ShardedOpenLoopGenerator(
            deployment.sim, deployment.router, deployment.txns,
            rate_tps=1000.0, cross_fraction=0.3)
        generator.start()
        deployment.start()
        deployment.run(600.0)
        assert generator.writes_issued > 0
        assert generator.txns_issued > 0
        issued_before = generator.txns_issued
        generator.stop_cross()
        deployment.run(600.0)
        assert generator.txns_issued == issued_before
        assert generator.writes_issued > 0
