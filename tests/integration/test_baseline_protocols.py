"""Integration tests for the baseline protocols: each one commits, stays
safe, and exhibits the cost structure the paper attributes to it."""

from __future__ import annotations

import pytest

from repro.baselines.braft import BRaftNode
from repro.baselines.damysus import DamysusNode
from repro.baselines.flexibft import FlexiBFTNode
from repro.baselines.oneshot import OneShotNode
from repro.client.workload import SaturatedSource
from repro.consensus.cluster import build_cluster
from repro.consensus.config import ProtocolConfig
from repro.errors import ChainError
from repro.harness.metrics import MetricsCollector
from repro.net.latency import LAN_PROFILE
from repro.tee.counters import ConfigurableCounter

from tests.conftest import fast_config


def run_protocol(node_cls, f=2, n=None, counter_write_ms=None, duration=400.0,
                 seed=7, config_extra=None):
    kwargs = dict(config_extra or {})
    if counter_write_ms is not None:
        kwargs["counter_factory"] = lambda: ConfigurableCounter(counter_write_ms)
    config = fast_config(f=f, **kwargs)
    if n is not None:
        config = config.with_(n=n)
    collector = MetricsCollector()
    cluster = build_cluster(
        node_factory=node_cls, config=config, latency=LAN_PROFILE,
        source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
        listener=collector, seed=seed,
    )
    cluster.collector = collector
    cluster.start()
    cluster.run(duration)
    cluster.assert_safety()
    return cluster


class TestDamysus:
    def test_commits_and_safety(self):
        cluster = run_protocol(DamysusNode)
        assert cluster.min_committed_height() >= 10

    def test_two_checker_calls_per_node_per_view(self):
        cluster = run_protocol(DamysusNode)
        blocks = cluster.collector.blocks_committed
        for node in cluster.nodes:
            # tee_prepare/tee_vote_prepare + tee_record_prepared ≈ 2/view
            per_block = node.checker.ecalls / max(1, blocks)
            assert 1.5 <= per_block <= 3.0

    def test_counter_slows_damysus_r(self):
        plain = run_protocol(DamysusNode, duration=600.0)
        with_counter = run_protocol(DamysusNode, counter_write_ms=20.0,
                                    duration=600.0)
        assert plain.collector.throughput_ktps() > \
            5 * with_counter.collector.throughput_ktps()
        assert with_counter.collector.commit_latency.mean > \
            plain.collector.commit_latency.mean + 50.0  # ≥ ~3 writes

    def test_commit_latency_two_phases(self):
        """Damysus commits in two voting phases: commit latency must be
        roughly twice Achilles' one-phase latency on the same network."""
        from tests.conftest import achilles_cluster

        damysus = run_protocol(DamysusNode)
        achilles = achilles_cluster(f=2, seed=7)
        achilles.start()
        achilles.run(400.0)
        assert damysus.collector.commit_latency.mean > \
            1.5 * achilles.collector.commit_latency.mean


class TestOneShot:
    def test_commits_and_safety(self):
        cluster = run_protocol(OneShotNode)
        assert cluster.min_committed_height() >= 10

    def test_fast_path_single_ecall_per_view(self):
        cluster = run_protocol(OneShotNode)
        blocks = cluster.collector.blocks_committed
        for node in cluster.nodes:
            per_block = node.checker.ecalls / max(1, blocks)
            assert per_block <= 2.0  # one on the fast path (+ bootstrap noise)

    def test_oneshot_r_pays_half_of_damysus_r(self):
        oneshot_r = run_protocol(OneShotNode, counter_write_ms=20.0,
                                 duration=800.0)
        damysus_r = run_protocol(DamysusNode, counter_write_ms=20.0,
                                 duration=800.0)
        assert oneshot_r.collector.throughput_ktps() > \
            1.4 * damysus_r.collector.throughput_ktps()

    def test_slow_path_engages_after_leader_crash(self):
        cluster = run_protocol(OneShotNode, duration=50.0)
        # Crash an upcoming leader, then keep running: a timeout view must
        # be resolved through the two-phase slow path.
        current_view = max(n.view for n in cluster.nodes)
        victim = (current_view + 2) % cluster.config.n
        cluster.nodes[victim].crash()
        cluster.run(600.0)
        cluster.assert_safety()
        live = [n for n in cluster.nodes if n.alive]
        assert min(n.store.committed_tip.height for n in live) >= 10


class TestFlexiBFT:
    def test_commits_with_3f_plus_1(self):
        config = ProtocolConfig(
            n=7, f=2, batch_size=20, payload_size=16, base_timeout_ms=50.0, seed=3,
            counter_factory=lambda: ConfigurableCounter(1.0),
        )
        collector = MetricsCollector()
        cluster = build_cluster(
            node_factory=FlexiBFTNode, config=config, latency=LAN_PROFILE,
            source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
            listener=collector, seed=3,
        )
        cluster.start()
        cluster.run(400.0)
        cluster.assert_safety()
        assert cluster.config.n == 7
        assert cluster.min_committed_height() >= 10

    def test_only_leader_writes_counter(self):
        config = ProtocolConfig(
            n=4, f=1, batch_size=20, payload_size=16, base_timeout_ms=50.0, seed=3,
            counter_factory=lambda: ConfigurableCounter(1.0),
        )
        collector = MetricsCollector()
        cluster = build_cluster(
            node_factory=FlexiBFTNode, config=config, latency=LAN_PROFILE,
            source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
            listener=collector, seed=3,
        )
        cluster.start()
        cluster.run(300.0)
        writes = [n.proposer.counter.writes for n in cluster.nodes]
        assert writes[0] > 0              # the stable leader pays
        assert all(w == 0 for w in writes[1:])  # backups never do

    def test_leader_crash_triggers_view_change(self):
        config = ProtocolConfig(
            n=4, f=1, batch_size=20, payload_size=16, base_timeout_ms=40.0, seed=3,
        )
        collector = MetricsCollector()
        cluster = build_cluster(
            node_factory=FlexiBFTNode, config=config, latency=LAN_PROFILE,
            source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
            listener=collector, seed=3,
        )
        cluster.start()
        cluster.run(100.0)
        height_before = cluster.min_committed_height()
        cluster.nodes[0].crash()  # the stable leader
        cluster.run(800.0)
        cluster.assert_safety()
        live = [n for n in cluster.nodes if n.alive]
        assert min(n.store.committed_tip.height for n in live) > height_before
        assert all(n.view >= 1 for n in live)  # a view change happened

    def test_rebooted_backup_rearms_and_votes_the_leader_out(self):
        """A backup reboots just before the leader dies.  With n = 4 the
        view change needs all three survivors, so a rebooted replica whose
        view timer is never re-armed (FlexiBFT once had no reboot path at
        all) wedges the committee for good: views [0, 0, 0, 0] forever.

        Default-sized blocks on purpose: the backup comes back ~20 blocks
        behind and catches up inside view 1.  With 20-transaction blocks it
        is ~100 behind, view 1 times out first, and as view 2's leader it
        proposes from its stale tip — the view-change safety hole ROADMAP
        item 5(a) records, pinned by the next test."""
        self.reboot_backup_then_crash_leader()

    @pytest.mark.xfail(strict=True, raises=ChainError, reason=(
        "ROADMAP item 5(a): the rebooted backup, ~100 blocks behind, "
        "leads view 2 and proposes from its stale committed tip"))
    def test_rebooted_backup_far_behind_proposes_on_the_committed_tip(self):
        self.reboot_backup_then_crash_leader(batch_size=20)

    @staticmethod
    def reboot_backup_then_crash_leader(**config_extra) -> None:
        config = ProtocolConfig(
            n=4, f=1, base_timeout_ms=50.0, seed=3,
            counter_factory=lambda: ConfigurableCounter(1.0), **config_extra,
        )
        cluster = build_cluster(
            node_factory=FlexiBFTNode, config=config, latency=LAN_PROFILE,
            source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
            listener=MetricsCollector(), seed=3,
        )
        backup, leader = cluster.nodes[2], cluster.nodes[0]
        cluster.start()
        cluster.sim.schedule_at(100.0, backup.crash)
        cluster.sim.schedule_at(150.0, backup.reboot)
        cluster.sim.schedule_at(150.5, leader.crash)
        cluster.run(151.0)
        height_at_leader_crash = cluster.max_committed_height()
        cluster.run(2849.0)
        cluster.assert_safety()
        live = [n for n in cluster.nodes if n.alive]
        assert len(live) == 3
        assert all(n.view >= 1 for n in live)
        assert all(n.pacemaker.armed for n in live)
        assert min(n.store.committed_tip.height for n in live) > \
            height_at_leader_crash


class TestRelativePerformance:
    """The paper's LAN ordering (Fig. 4): Achilles > FlexiBFT > OneShot-R >
    Damysus-R once 20 ms counters are in play."""

    def test_lan_ordering_with_counters(self):
        from repro.harness.runner import run_experiment

        results = {
            name: run_experiment(name, f=2, network="LAN", batch_size=100,
                                 payload_size=64, duration_ms=800,
                                 warmup_ms=150, seed=2)
            for name in ("achilles", "flexibft", "oneshot-r", "damysus-r")
        }
        tput = {k: v.throughput_ktps for k, v in results.items()}
        assert tput["achilles"] > tput["flexibft"] > tput["oneshot-r"] > \
            tput["damysus-r"]
