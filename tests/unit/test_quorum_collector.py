"""QuorumCollector: the one vote bucket every protocol collects into.

The oracle below is the dict-of-dicts body that ten call sites used to
hand-roll (``on_StoreVote`` + ``_prune`` in the Achilles node, verbatim
but for the key order); the property test drives both with the same random
vote streams.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.common import PREP, PhaseVote
from repro.baselines.damysus import DamysusNode
from repro.baselines.damysus.node import DPrepareVote
from repro.consensus.base import QuorumCollector
from repro.consensus.cluster import build_cluster
from repro.core.certificates import StoreCertificate
from repro.core.node import StoreVote
from repro.crypto.signatures import sign
from repro.net.latency import LAN_PROFILE

from tests.conftest import achilles_cluster, fast_config


class DictOfDictsOracle:
    """What each handler and ``_prune`` used to spell out by hand."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.votes: dict[tuple, dict[int, object]] = {}
        self.decided: set[int] = set()

    def add(self, key, signer, item):
        if key[0] in self.decided:
            return None
        bucket = self.votes.setdefault(key, {})
        bucket[signer] = item
        if len(bucket) < self.threshold:
            return None
        self.decided.add(key[0])
        return list(bucket.values())[: self.threshold]

    def prune(self, committed_view):
        for key in [k for k in self.votes if k[0] <= committed_view]:
            del self.votes[key]
        self.decided = {v for v in self.decided if v > committed_view}


class TestCollecting:
    def test_a_signer_counts_once_however_often_it_votes(self):
        collector = QuorumCollector(threshold=2)
        for _ in range(5):
            assert collector.add((1, "h"), 7, "vote") is None
        assert collector.votes((1, "h")) == ["vote"]
        assert collector.voted((1, "h"), 7)
        assert not collector.voted((1, "h"), 8)
        assert collector.add((1, "h"), 8, "other") == ["vote", "other"]

    def test_a_repeated_vote_keeps_its_place_in_arrival_order(self):
        collector = QuorumCollector(threshold=3)
        collector.add((4, "h"), 2, "from-2")
        collector.add((4, "h"), 0, "from-0")
        collector.add((4, "h"), 2, "from-2-again")
        assert collector.add((4, "h"), 1, "from-1") == \
            ["from-2-again", "from-0", "from-1"]

    def test_buckets_of_one_view_fill_separately(self):
        collector = QuorumCollector(threshold=2)
        assert collector.add((1, "a"), 0, "a0") is None
        assert collector.add((1, "b"), 1, "b1") is None
        assert collector.add((1, "b"), 2, "b2") == ["b1", "b2"]

    def test_the_quorum_is_handed_out_once_per_view(self):
        collector = QuorumCollector(threshold=2)
        collector.add((3, "h"), 0, "v0")
        assert collector.add((3, "h"), 1, "v1") == ["v0", "v1"]
        assert collector.latched == {3}
        # The view is latched: later votes, for any block, are dropped.
        assert collector.add((3, "h"), 2, "v2") is None
        assert collector.add((3, "other"), 3, "v3") is None
        assert collector.add((3, "other"), 4, "v4") is None
        assert collector.votes((3, "h")) == ["v0", "v1"]
        assert collector.votes((3, "other")) == []
        # Another view is untouched.
        collector.add((4, "h"), 0, "w0")
        assert collector.add((4, "h"), 1, "w1") == ["w0", "w1"]

    def test_without_once_every_further_vote_reports_the_whole_bucket(self):
        collector = QuorumCollector(threshold=2, once=False)
        collector.add((5,), 0, "c0")
        assert collector.add((5,), 1, "c1") == ["c0", "c1"]
        assert collector.add((5,), 2, "c2") == ["c0", "c1", "c2"]
        assert not collector.latched

    def test_discard_forgets_one_bucket(self):
        collector = QuorumCollector(threshold=3, once=False)
        collector.add((0, "a"), 1, "x")
        collector.add((0, "b"), 1, "y")
        collector.discard((0, "a"))
        collector.discard((9, "never-seen"))
        assert collector.votes((0, "a")) == []
        assert collector.votes((0, "b")) == ["y"]

    def test_prune_drops_views_at_or_below_and_nothing_else(self):
        collector = QuorumCollector(threshold=2)
        for view in (1, 2, 3):
            collector.add((view, "h"), 0, f"v{view}")
        collector.add((2, "h"), 1, "fills-2")
        collector.add((3, "h"), 1, "fills-3")
        assert collector.latched == {2, 3}
        collector.prune(2)
        assert set(collector.buckets) == {(3, "h")}
        assert collector.latched == {3}

    def test_clear_forgets_buckets_and_latches(self):
        collector = QuorumCollector(threshold=1)
        collector.add((1, "h"), 0, "v")
        collector.clear()
        assert not collector.buckets and not collector.latched
        assert collector.add((1, "h"), 0, "v") == ["v"]


#: add(view, block, signer) or prune(view), on a small alphabet so buckets
#: collide, fill, latch and get pruned within a short stream.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5), st.sampled_from("ab"),
                  st.integers(0, 4)),
        st.tuples(st.just("prune"), st.integers(0, 5)),
    ),
    max_size=60,
)


class TestAgainstTheHandRolledBody:
    @given(operations, st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_same_answers_and_same_state_on_any_vote_stream(self, ops,
                                                            threshold):
        collector = QuorumCollector(threshold)
        oracle = DictOfDictsOracle(threshold)
        for step, op in enumerate(ops):
            if op[0] == "add":
                _, view, block, signer = op
                item = (step, signer)
                assert collector.add((view, block), signer, item) == \
                    oracle.add((view, block), signer, item)
            else:
                collector.prune(op[1])
                oracle.prune(op[1])
            assert collector.buckets == oracle.votes
            assert [list(b) for b in collector.buckets.values()] == \
                [list(b) for b in oracle.votes.values()]  # arrival order
            assert collector.latched == oracle.decided


def _count_verifies(node) -> list:
    calls: list = []
    charge = node.charge_verify

    def counting(count: int = 1) -> None:
        calls.append(count)
        charge(count)

    node.charge_verify = counting
    return calls


class TestLatchComesBeforeTheSignatureCheck:
    """A vote for a view whose quorum is out costs the leader nothing —
    the order ``on_StoreVote`` and the ``_collect_*_vote`` bodies had."""

    def test_achilles_store_vote(self):
        cluster = achilles_cluster(f=1)
        view = 7
        leader = cluster.nodes[view % 3]
        keypair = cluster.nodes[0].keypair
        vote = StoreVote(cert=StoreCertificate(
            block_hash="h", view=view,
            signature=sign(keypair.private, "COMMIT", "h", view)))
        verifies = _count_verifies(leader)
        leader.on_StoreVote(vote, 0)
        assert verifies == [1]
        assert leader._votes.votes((view, "h")) == [vote.cert]
        leader._votes.latched.add(view)
        leader.on_StoreVote(vote, 0)
        assert verifies == [1]

    def test_a_phase_vote_through_the_shared_leader_side(self):
        cluster = build_cluster(node_factory=DamysusNode,
                                config=fast_config(f=1), latency=LAN_PROFILE)
        view = 5
        leader = cluster.nodes[view % 3]
        keypair = cluster.nodes[0].keypair
        vote = DPrepareVote(vote=PhaseVote(
            phase=PREP, block_hash="h", view=view,
            signature=sign(keypair.private, PREP, "h", view)))
        verifies = _count_verifies(leader)
        leader.on_DPrepareVote(vote, 0)
        assert verifies == [1]
        leader._prepare_votes.latched.add(view)
        leader.on_DPrepareVote(vote, 0)
        assert verifies == [1]

    @pytest.mark.parametrize("backup_offset", [1, 2])
    def test_a_backup_never_collects(self, backup_offset):
        cluster = achilles_cluster(f=1)
        view = 7
        backup = cluster.nodes[(view + backup_offset) % 3]
        vote = StoreVote(cert=StoreCertificate(
            block_hash="h", view=view,
            signature=sign(cluster.nodes[0].keypair.private,
                           "COMMIT", "h", view)))
        verifies = _count_verifies(backup)
        backup.on_StoreVote(vote, 0)
        assert verifies == [] and not backup._votes.buckets
