"""Deeper path coverage for OneShot (fast vs slow) and Damysus (view
changes, certificate plumbing)."""

from __future__ import annotations

import pytest

from repro.baselines.damysus import DamysusNode
from repro.baselines.oneshot import OneShotNode, OSPreQC, OSProposal
from repro.client.workload import SaturatedSource
from repro.consensus.cluster import build_cluster
from repro.harness.metrics import MetricsCollector
from repro.net.adversary import LinkRule
from repro.net.latency import LAN_PROFILE

from tests.conftest import fast_config


def cluster_of(node_cls, f=2, seed=19, **config_overrides):
    collector = MetricsCollector()
    cluster = build_cluster(
        node_factory=node_cls, config=fast_config(f=f, **config_overrides),
        latency=LAN_PROFILE,
        source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
        listener=collector, seed=seed,
    )
    cluster.collector = collector
    return cluster


class TestOneShotPaths:
    def test_happy_path_is_all_fast(self):
        cluster = cluster_of(OneShotNode)
        slow_proposals = []
        cluster.network.adversary.intercept = (
            lambda s, d, p: slow_proposals.append(p)
            if isinstance(p, OSProposal) and p.slow else None
        )
        cluster.start()
        cluster.run(300.0)
        cluster.assert_safety()
        assert cluster.min_committed_height() >= 20
        # Only the bootstrap view uses the slow path.
        slow_views = {p.block.view for p in slow_proposals}
        assert slow_views <= {1}

    def test_slow_path_after_timeout_uses_pre_round(self):
        cluster = cluster_of(OneShotNode)
        pre_qcs = []
        cluster.network.adversary.intercept = (
            lambda s, d, p: pre_qcs.append(p) if isinstance(p, OSPreQC) else None
        )
        cluster.start()
        cluster.run(100.0)
        # Crash the upcoming leader: the next view resolves via timeout →
        # accumulator → slow (two-phase) path.
        view = max(n.view for n in cluster.nodes)
        victim = (view + 2) % cluster.config.n
        cluster.nodes[victim].crash()
        cluster.run(500.0)
        cluster.assert_safety()
        assert pre_qcs, "a timeout view must run the PRE round"
        live = [n for n in cluster.nodes if n.alive]
        assert min(n.store.committed_tip.height for n in live) >= 20

    def test_slow_path_blocks_commit_in_same_view_as_fast(self):
        """Both paths commit exactly one block per view (no equivocation
        across the mode switch)."""
        cluster = cluster_of(OneShotNode)
        cluster.start()
        cluster.run(100.0)
        view = max(n.view for n in cluster.nodes)
        cluster.nodes[(view + 2) % cluster.config.n].crash()
        cluster.run(500.0)
        live = [n for n in cluster.nodes if n.alive]
        for node in live:
            views = [b.view for b in node.store.committed_chain()[1:]]
            assert len(views) == len(set(views))


class TestDamysusPaths:
    def test_leader_crash_view_change(self):
        cluster = cluster_of(DamysusNode)
        cluster.start()
        cluster.run(100.0)
        height = cluster.min_committed_height()
        view = max(n.view for n in cluster.nodes)
        victim = (view + 2) % cluster.config.n
        cluster.nodes[victim].crash()
        cluster.run(600.0)
        cluster.assert_safety()
        live = [n for n in cluster.nodes if n.alive]
        assert min(n.store.committed_tip.height for n in live) > height

    def test_two_phases_per_view(self):
        """Each committed block saw one prepared QC and one commit QC."""
        from repro.baselines.damysus.node import DDecide, DPrepared

        cluster = cluster_of(DamysusNode)
        prepared, decided = [], []
        cluster.network.adversary.intercept = (
            lambda s, d, p: prepared.append(p.qc.block_hash)
            if isinstance(p, DPrepared)
            else decided.append(p.qc.block_hash)
            if isinstance(p, DDecide) else None
        )
        cluster.start()
        cluster.run(200.0)
        committed = {b.hash for b in cluster.nodes[0].store.committed_chain()[1:]}
        assert committed <= set(prepared)
        assert committed <= set(decided)

    def test_a_rebooted_leader_holds_no_pre_crash_votes(self):
        """Vote collectors live in host RAM: the reboot that wipes them on
        every other protocol wipes a Damysus leader's too."""
        cluster = cluster_of(DamysusNode, f=1)
        cluster.start()
        cluster.run(100.0)
        leader = cluster.nodes[1]
        collectors = (leader._prepare_votes, leader._commit_votes)
        assert any(c.buckets or c.latched for c in collectors)
        leader.crash()
        cluster.run(10.0)
        leader.reboot()
        assert all(not c.buckets and not c.latched for c in collectors)
        cluster.run(200.0)
        cluster.assert_safety()

    def test_a_backup_commits_a_decided_block_it_never_received(self):
        """A backup that hears only DECIDEs pulls each decided block and
        commits it, instead of waiting for a proposal that extends it."""
        cluster = cluster_of(DamysusNode, f=1)
        cluster.start()
        cluster.run(100.0)
        backup = cluster.nodes[2]
        height = backup.store.committed_tip.height
        cluster.network.adversary.add_rule(LinkRule(
            dst=backup.node_id, drop=True,
            predicate=lambda p: type(p).__name__ not in (
                "DDecide", "BlockSyncResponse")))
        cluster.run(300.0)
        cluster.assert_safety()
        assert cluster.max_committed_height() > height + 5
        assert backup.store.committed_tip.height >= \
            cluster.max_committed_height() - 1

    def test_pipelining_overlaps_decide_with_next_view(self):
        """Chained Damysus: NEW-VIEW certificates ship with commit votes,
        so block k+1's PREPARE overlaps block k's DECIDE — the inter-block
        gap is ~3 one-way steps even though commit latency spans 4."""
        from repro.harness.runner import run_experiment

        result = run_experiment("damysus", f=1, network="WAN", batch_size=50,
                                payload_size=64, duration_ms=3000,
                                warmup_ms=600, seed=3)
        gap_ms = 2400.0 / max(1, result.blocks_committed)
        assert gap_ms == pytest.approx(3 * 20.0, abs=8.0)
        assert result.commit_latency_ms == pytest.approx(4 * 20.0, abs=8.0)
