"""Attack scenarios from the paper.

* The Sec. 4.5 five-node attack: without the "highest-view reply must come
  from that view's leader" rule, repeated crash-recover cycles let a
  partitioned leader commit a block the rest of the committee then forks
  away from.  We mount the attack against the real checker and show the
  rule blocks it at the TEE boundary.
* Recovery-reply replay (defeated by nonces).
* Equivocation attempts by a Byzantine leader (defeated by the CHECKER).
* Rollback of sealed state (Achilles never trusts sealed consensus state,
  so there is nothing to roll back — recovery asks the network instead).
"""

from __future__ import annotations

import pytest

from repro.chain.block import create_leaf, genesis_block
from repro.consensus.cluster import build_cluster
from repro.core.checker import AchillesChecker
from repro.core.node import AchillesNode, NodeStatus
from repro.crypto.keys import Keyring, generate_keypairs
from repro.errors import EnclaveAbort
from repro.faults.byz import make_byzantine
from repro.faults.scenarios import crash_and_reboot
from repro.net.latency import LAN_PROFILE
from repro.client.workload import SaturatedSource
from repro.harness.metrics import MetricsCollector

from tests.conftest import fast_config

EquivocationAttemptNode = make_byzantine(AchillesNode, ["equivocate"])
ReplayingRecoveryResponder = make_byzantine(AchillesNode, ["replay-recovery"])

N, F = 5, 2


class TestFiveNodeRecoveryAttack:
    """Sec. 4.5: p1 leads view v and gets p2's vote; p2 'crashes' and is
    recovered from p3..p5 (who never saw the block).  Repeating over p3, p4
    would let p1 commit a block only it stores.  The leader rule makes the
    recovery itself impossible: the highest-view reply comes from a node
    that is not the leader of that view."""

    def _checkers(self):
        pairs = generate_keypairs(range(N), seed=31)
        ring = Keyring.from_keypairs(pairs)
        checkers = {
            i: AchillesChecker(node_id=i, n=N, f=F, private_key=pairs[i].private,
                               keyring=ring)
            for i in range(N)
        }
        return pairs, ring, checkers

    def test_recovery_that_would_forget_a_vote_is_blocked(self):
        pairs, ring, checkers = self._checkers()
        from repro.core.accumulator import AchillesAccumulator

        # View 1, leader p1: everyone enters view 1.
        certs = {i: checkers[i].tee_view() for i in range(N)}
        accum = AchillesAccumulator(node_id=1, f=F, private_key=pairs[1].private,
                                    keyring=ring)
        acc = accum.tee_accum(certs[0], [certs[0], certs[2], certs[3]])
        block = create_leaf((), "op", genesis_block(), view=1, proposer=1)
        block_cert = checkers[1].tee_prepare(block, acc)

        # Only p2 votes for the block (the adversary hides it from p3..p5).
        checkers[2].tee_store(block_cert)
        assert checkers[2].state.preph == block.hash

        # p2 "crashes"; the adversary has it recover from p3, p4, p5 —
        # nodes that never saw the block (their vi is still 1, leader-less).
        checkers[2].reboot()
        checkers[2].restart(N - 1)
        request = checkers[2].tee_request()
        replies = [checkers[i].tee_reply(request) for i in (3, 4, 5 - 5)]
        # highest vi among (p3, p4, p0) is 1, but leader_of(1) == p1 is NOT
        # among the repliers → TEErecover must refuse.
        best = max(replies, key=lambda r: r.vi)
        with pytest.raises(EnclaveAbort, match="leader"):
            checkers[2].tee_recover(best, replies)

    def test_recovery_through_the_leader_remembers_the_vote(self):
        """When the reply set does include the view's leader, recovery
        succeeds — and lands p2 *past* the view it voted in, so the vote
        can never be contradicted (no equivocation, Lemma 1)."""
        pairs, ring, checkers = self._checkers()
        from repro.core.accumulator import AchillesAccumulator

        certs = {i: checkers[i].tee_view() for i in range(N)}
        accum = AchillesAccumulator(node_id=1, f=F, private_key=pairs[1].private,
                                    keyring=ring)
        acc = accum.tee_accum(certs[0], [certs[0], certs[2], certs[3]])
        block = create_leaf((), "op", genesis_block(), view=1, proposer=1)
        block_cert = checkers[1].tee_prepare(block, acc)
        checkers[2].tee_store(block_cert)

        checkers[2].reboot()
        checkers[2].restart(N - 1)
        request = checkers[2].tee_request()
        replies = [checkers[i].tee_reply(request) for i in (1, 3, 4)]
        leader_reply = next(r for r in replies if r.signer == 1)
        checkers[2].tee_recover(leader_reply, replies)
        # vi = 1 + 2: p2 cannot vote in view 1 (or 2) again.
        assert checkers[2].state.vi == 3
        stale_vote_attempt = block_cert
        with pytest.raises(EnclaveAbort, match="stale"):
            checkers[2].tee_store(stale_vote_attempt)


class TestReplayAttack:
    def test_stale_recovery_replies_are_rejected_end_to_end(self):
        """A Byzantine responder replays captured replies for later
        requests; the rebooted node must ignore them and still recover
        using honest responders."""
        collector = MetricsCollector()
        cluster = build_cluster(
            node_factory=AchillesNode,
            config=fast_config(f=2),
            latency=LAN_PROFILE,
            source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
            listener=collector,
            seed=5,
            byzantine_factories={4: ReplayingRecoveryResponder},
        )
        crash_and_reboot(cluster, node_id=2, at_ms=100.0, downtime_ms=10.0)
        # A second reboot later makes the replayer serve its stale capture.
        crash_and_reboot(cluster, node_id=2, at_ms=400.0, downtime_ms=10.0)
        cluster.start()
        cluster.run(900.0)
        cluster.assert_safety()
        node = cluster.nodes[2]
        assert node.status is NodeStatus.RUNNING
        assert len(node.recovery_episodes) == 2
        replayer = cluster.nodes[4]
        # The attack was actually mounted:
        assert replayer.byz.snapshot()["replay-recovery"]["attempts"] > 0

    def test_replay_capture_survives_the_attackers_own_reboot(self):
        """The captured response is persisted in the attacker's untrusted
        store, so the replay still fires after the *attacker* reboots —
        and the recovery nonce still defeats the cross-epoch replay."""
        from repro.faults.byz import REPLAY_CAPTURE_KEY

        collector = MetricsCollector()
        cluster = build_cluster(
            node_factory=AchillesNode,
            config=fast_config(f=2),
            latency=LAN_PROFILE,
            source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
            listener=collector,
            seed=5,
            byzantine_factories={4: ReplayingRecoveryResponder},
        )
        # Episode 1: the attacker answers honestly and captures its reply.
        crash_and_reboot(cluster, node_id=2, at_ms=100.0, downtime_ms=10.0)
        # The attacker itself reboots, wiping its volatile memory.
        crash_and_reboot(cluster, node_id=4, at_ms=300.0, downtime_ms=10.0)
        # Episode 2, after the attacker's reboot: the stale capture must
        # still be served (from the untrusted store) and rejected.
        crash_and_reboot(cluster, node_id=2, at_ms=600.0, downtime_ms=10.0)
        cluster.start()
        cluster.run(1200.0)
        cluster.assert_safety()
        replayer = cluster.nodes[4]
        # The capture survived the attacker's reboot on (untrusted) disk…
        assert replayer.checker.store.fetch(REPLAY_CAPTURE_KEY) is not None
        assert replayer.byz.snapshot()["replay-recovery"]["attempts"] > 0
        # …and the nonce still defeated the cross-epoch replay: the victim
        # completed both episodes against honest repliers only.
        victim = cluster.nodes[2]
        assert victim.status is NodeStatus.RUNNING
        assert len(victim.recovery_episodes) == 2
        stale = replayer.checker.store.fetch(REPLAY_CAPTURE_KEY)
        assert stale.reply.nonce != victim._recovery_nonce


class TestEquivocationAttack:
    def test_checker_blocks_double_proposals_in_live_run(self):
        collector = MetricsCollector()
        cluster = build_cluster(
            node_factory=AchillesNode,
            config=fast_config(f=2),
            latency=LAN_PROFILE,
            source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
            listener=collector,
            seed=5,
            byzantine_factories={1: EquivocationAttemptNode},
        )
        cluster.start()
        cluster.run(300.0)
        cluster.assert_safety()
        byz = cluster.nodes[1]
        counts = byz.byz.snapshot()["equivocate"]
        # Attempts include send-layer forgeries; denials count the TEE
        # refusing a second per-view certificate — both must have fired,
        # and no double-proposal ever got through.
        assert counts["denials"] > 0
        assert counts["attempts"] >= counts["denials"]
        # Liveness unharmed: the committee kept committing.
        assert cluster.min_committed_height() >= 10

    def test_no_two_committed_blocks_share_a_view(self):
        collector = MetricsCollector()
        cluster = build_cluster(
            node_factory=AchillesNode,
            config=fast_config(f=2),
            latency=LAN_PROFILE,
            source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
            listener=collector,
            seed=6,
            byzantine_factories={1: EquivocationAttemptNode,
                                 3: EquivocationAttemptNode},
        )
        cluster.start()
        cluster.run(300.0)
        cluster.assert_safety()
        for node in cluster.nodes:
            views = [b.view for b in node.store.committed_chain()[1:]]
            assert len(views) == len(set(views))
