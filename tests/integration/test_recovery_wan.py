"""Recovery behaviour over WAN and under combined stress."""

from __future__ import annotations

import pytest

from repro.client.workload import SaturatedSource
from repro.core.node import AchillesNode, NodeStatus
from repro.core.protocol import build_achilles_cluster
from repro.faults.scenarios import crash_and_reboot
from repro.harness.metrics import MetricsCollector
from repro.net.latency import WAN_PROFILE

from tests.conftest import fast_config


def wan_cluster(f=2, seed=31):
    collector = MetricsCollector()
    cluster = build_achilles_cluster(
        f=f, latency=WAN_PROFILE,
        config=fast_config(f=f, base_timeout_ms=300.0, recovery_retry_ms=120.0),
        source_factory=lambda sim: SaturatedSource(
            sim, payload_size=16, client_one_way_ms=WAN_PROFILE.one_way_ms),
        listener=collector, seed=seed,
    )
    cluster.collector = collector
    return cluster


class TestWanRecovery:
    def test_recovery_over_wan_costs_a_round_trip(self):
        cluster = wan_cluster()
        crash_and_reboot(cluster, node_id=3, at_ms=300.0, downtime_ms=15.0)
        cluster.start()
        cluster.run(4000.0)
        cluster.assert_safety()
        node = cluster.nodes[3]
        assert node.status is NodeStatus.RUNNING
        episode = node.recovery_episodes[0]
        # One request/reply round trip ≈ 40 ms dominates the protocol part.
        assert 35.0 <= episode.protocol_ms <= 150.0
        assert episode.init_ms < episode.protocol_ms  # unlike LAN (Table 2)

    def test_wan_progress_unharmed_by_recovery(self):
        cluster = wan_cluster()
        crash_and_reboot(cluster, node_id=4, at_ms=300.0, downtime_ms=20.0)
        cluster.start()
        cluster.run(5000.0)
        cluster.assert_safety()
        # Achilles WAN commits a block every ~60 ms; allow churn slack.
        assert cluster.collector.blocks_committed >= 50

    def test_recovery_during_view_change_storm(self):
        """Reboot a node while another is crashed (timeouts churning)."""
        cluster = wan_cluster()
        cluster.nodes[1].crash()
        crash_and_reboot(cluster, node_id=3, at_ms=500.0, downtime_ms=20.0)
        cluster.start()
        cluster.run(8000.0)
        cluster.assert_safety()
        node = cluster.nodes[3]
        assert node.status is NodeStatus.RUNNING
        live = [n for n in cluster.nodes if n.alive]
        assert min(n.store.committed_tip.height for n in live) >= 10
