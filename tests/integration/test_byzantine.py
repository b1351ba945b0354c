"""Byzantine behaviour under quorums: silence, vote withholding, and
Decide hiding (the restrictive-responsiveness scenario of Sec. 6.1)."""

from __future__ import annotations

import pytest

from repro.consensus.cluster import build_cluster
from repro.client.workload import SaturatedSource
from repro.core.node import AchillesNode
from repro.faults.byz import make_byzantine
from repro.harness.metrics import MetricsCollector
from repro.net.latency import LAN_PROFILE

from tests.conftest import fast_config

SilentNode = make_byzantine(AchillesNode, ["silent"])
VoteWithholdingNode = make_byzantine(AchillesNode, ["withhold-vote"])
DecideHidingNode = make_byzantine(AchillesNode, ["hide-decide"])


def byzantine_cluster(factories: dict, f: int = 2, seed: int = 9,
                      config=None):
    collector = MetricsCollector()
    cluster = build_cluster(
        node_factory=AchillesNode,
        config=config if config is not None else fast_config(f=f),
        latency=LAN_PROFILE,
        source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
        listener=collector,
        seed=seed,
        byzantine_factories=factories,
    )
    cluster.collector = collector
    return cluster


class TestSilence:
    def test_f_silent_nodes_tolerated(self):
        cluster = byzantine_cluster({1: SilentNode, 3: SilentNode})
        cluster.start()
        cluster.run(800.0)
        cluster.assert_safety()
        honest = [n for n in cluster.nodes if not isinstance(n, SilentNode)]
        assert min(n.store.committed_tip.height for n in honest) >= 3

    def test_f_plus_one_silent_nodes_halt_liveness(self):
        cluster = byzantine_cluster({1: SilentNode, 2: SilentNode, 3: SilentNode})
        cluster.start()
        cluster.run(500.0)
        assert cluster.max_committed_height() == 0
        cluster.assert_safety()  # safety holds even without liveness


class TestVoteWithholding:
    def test_withheld_votes_masked_by_quorum(self):
        cluster = byzantine_cluster({2: VoteWithholdingNode, 4: VoteWithholdingNode})
        cluster.start()
        cluster.run(800.0)
        cluster.assert_safety()
        honest = [n for n in cluster.nodes
                  if not isinstance(n, VoteWithholdingNode)]
        assert min(n.store.committed_tip.height for n in honest) >= 3
        # The attack really happened:
        assert cluster.nodes[2].byz.snapshot()["withhold-vote"]["attempts"] > 0


class TestDecideHiding:
    def test_victims_catch_up_via_chained_commitment(self):
        """A Byzantine leader hides its Decide from node 4.  Node 4 misses
        that commit, but the next honest leader's block extends it, and the
        subsequent Decide commits the hidden ancestor too (Sec. 4.4 block
        synchronization + chained commitment)."""

        class Hider(DecideHidingNode):
            hidden_from = frozenset({4})

        cluster = byzantine_cluster({1: Hider})
        cluster.start()
        cluster.run(600.0)
        cluster.assert_safety()
        victim = cluster.nodes[4]
        assert victim.store.committed_tip.height >= 3
        # Victim's chain includes blocks proposed by the hiding leader,
        # committed transitively even though their Decide never arrived.
        proposers = {b.proposer for b in victim.store.committed_chain()[1:]}
        assert 1 in proposers


class TestMixedFaults:
    def test_silent_plus_withholding_at_the_bound(self):
        cluster = byzantine_cluster({0: SilentNode, 2: VoteWithholdingNode})
        cluster.start()
        cluster.run(800.0)
        cluster.assert_safety()
        honest = [n for n in cluster.nodes
                  if type(n) is AchillesNode]
        assert min(n.store.committed_tip.height for n in honest) >= 2
