"""The invariant monitors must trip on known-bad runs — each scenario
below stages one specific protocol violation and asserts the matching
invariant fires with a precise message (and no other)."""

from __future__ import annotations

import pytest

from repro.chain.block import Block, GENESIS_HASH
from repro.chain.transaction import EMPTY_BATCH, Transaction, TxBatch
from repro.consensus.config import ProtocolConfig
from repro.core.node import NodeStatus
from repro.core.protocol import build_achilles_cluster
from repro.harness.invariants import InvariantMonitor, InvariantViolation
from repro.harness.runner import Deployment
from repro.tee.counters import ConfigurableCounter

from tests.conftest import fast_config


def _block(height: int, parent_hash: str, view: int, proposer: int = 0,
           op: str = "") -> Block:
    return Block(txs=EMPTY_BATCH, op=op, parent_hash=parent_hash, view=view,
                 height=height, proposer=proposer)


def _monitored_cluster(f: int = 1, **config_overrides):
    from repro.client.workload import SaturatedSource

    monitor = InvariantMonitor()
    cluster = build_achilles_cluster(
        f=f, config=fast_config(f=f, **config_overrides),
        source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
        listener=monitor, seed=5,
    )
    monitor.bind(cluster)
    return cluster, monitor


class TestAgreement:
    def test_byzantine_fork_trips_agreement(self):
        """Two nodes committing different blocks at one height (the fork a
        Byzantine leader would need equivocation for) is an agreement
        violation naming both nodes and both blocks."""
        cluster, monitor = _monitored_cluster()
        a = _block(1, GENESIS_HASH, view=1, op="left")
        b = _block(1, GENESIS_HASH, view=1, op="right")
        assert a.hash != b.hash
        monitor.on_commit(0, a, now=10.0)
        monitor.on_commit(3, b, now=11.0)
        assert not monitor.ok
        [violation] = monitor.violations
        assert violation.invariant == "agreement"
        assert violation.node == 3
        assert "nodes 0 and 3 committed different blocks at height 1" in str(violation)
        assert a.hash[:12] in violation.message and b.hash[:12] in violation.message
        with pytest.raises(AssertionError, match="agreement"):
            monitor.assert_ok()

    def test_non_extending_commit_trips_agreement(self):
        cluster, monitor = _monitored_cluster()
        parent = _block(1, GENESIS_HASH, view=1)
        orphan_parent = _block(1, GENESIS_HASH, view=1, op="other")
        child = _block(2, orphan_parent.hash, view=2)
        monitor.on_commit(0, parent, now=1.0)
        monitor.on_commit(0, child, now=2.0)
        assert [v.invariant for v in monitor.violations] == ["agreement"]
        assert "does not extend the canonical block" in monitor.violations[0].message

    def test_height_jump_trips_chain_integrity(self):
        cluster, monitor = _monitored_cluster()
        first = _block(1, GENESIS_HASH, view=1)
        skipped = _block(3, "f" * 64, view=3)
        monitor.on_commit(2, first, now=1.0)
        monitor.on_commit(2, skipped, now=2.0)
        kinds = [v.invariant for v in monitor.violations]
        assert "chain-integrity" in kinds
        integrity = next(v for v in monitor.violations
                         if v.invariant == "chain-integrity")
        assert "jumped 1 -> 3" in integrity.message

    def test_consistent_commits_are_clean(self):
        cluster, monitor = _monitored_cluster()
        one = _block(1, GENESIS_HASH, view=1)
        two = _block(2, one.hash, view=2)
        for node in (0, 1, 2):
            monitor.on_commit(node, one, now=1.0)
            monitor.on_commit(node, two, now=2.0)
        assert monitor.ok
        monitor.assert_ok()


def _tx_block(height: int, parent_hash: str, keys, op: str = "") -> Block:
    return Block(txs=TxBatch.of([Transaction(client_id=c, tx_id=i)
                                 for c, i in keys]),
                 op=op, parent_hash=parent_hash, view=height, height=height,
                 proposer=0)


class TestExactlyOnceApply:
    """A transaction key applied twice by one node trips
    ``exactly-once-apply``, naming the block that applied it first."""

    def _only(self, monitor) -> list:
        found = [v for v in monitor.violations
                 if v.invariant == "exactly-once-apply"]
        assert len(found) == len(monitor.violations)
        return found

    def test_a_key_repeated_inside_one_block_trips(self):
        monitor = InvariantMonitor()
        block = _tx_block(1, GENESIS_HASH, [(3, 7), (3, 8), (3, 7)])
        monitor.on_commit(2, block, now=1.0)
        [violation] = self._only(monitor)
        assert violation.node == 2
        assert violation.message == (
            f"tx (3, 7) applied twice: in block {block.hash[:12]} and "
            f"again in {block.hash[:12]} (height 1)")

    def test_a_key_repeated_across_two_blocks_trips(self):
        monitor = InvariantMonitor()
        first = _tx_block(1, GENESIS_HASH, [(i % 16, i) for i in range(1, 41)])
        second = _tx_block(2, first.hash, [(i % 16, i) for i in range(41, 81)]
                           + [(25 % 16, 25)])
        for node in (0, 1):
            monitor.on_commit(node, first, now=1.0)
        monitor.on_commit(1, second, now=2.0)
        [violation] = self._only(monitor)
        assert violation.node == 1
        assert violation.message == (
            f"tx (9, 25) applied twice: in block {first.hash[:12]} and "
            f"again in {second.hash[:12]} (height 2)")
        # Node 0 applies the same second block: its own violation.
        monitor.on_commit(0, second, now=3.0)
        assert [v.node for v in self._only(monitor)] == [1, 0]

    def test_per_client_counters_repeat_across_blocks(self):
        monitor = InvariantMonitor()
        first = _tx_block(1, GENESIS_HASH, [(10_000, 1), (10_001, 1),
                                            (10_000, 2)])
        second = _tx_block(2, first.hash, [(10_001, 2), (10_001, 1)])
        monitor.on_commit(0, first, now=1.0)
        monitor.on_commit(0, second, now=2.0)
        [violation] = self._only(monitor)
        assert violation.message == (
            f"tx (10001, 1) applied twice: in block {first.hash[:12]} and "
            f"again in {second.hash[:12]} (height 2)")

    def test_distinct_keys_in_every_shape_are_clean(self):
        monitor = InvariantMonitor()
        shapes = [[(i % 64, i) for i in range(1, 401)],
                  [(50_000, i) for i in range(1, 30, 3)],
                  [(c, 1) for c in range(10_000, 10_020)],
                  [(0, 2**32), (0, 2**40), (-1, 5), (7, -3), (0, 0)]]
        parent = GENESIS_HASH
        for height, keys in enumerate(shapes, start=1):
            block = _tx_block(height, parent, keys)
            monitor.on_commit(0, block, now=float(height))
            parent = block.hash
        assert monitor.ok, [str(v) for v in monitor.violations]

    def test_a_power_cut_replay_does_not_trip(self):
        monitor = InvariantMonitor()
        one = _tx_block(1, GENESIS_HASH, [(1, 1), (2, 2)])
        two = _tx_block(2, one.hash, [(3, 3), (4, 4)])
        for block in (one, two):
            monitor.on_commit(0, block, now=1.0)
        monitor.note_power_cut(0, durable_height=0)
        for block in (one, two):               # the replay re-commits both
            monitor.on_commit(0, block, now=2.0)
        assert monitor.ok, [str(v) for v in monitor.violations]
        # Past the replay the audit holds again.
        three = _tx_block(3, two.hash, [(5, 5), (2, 2)])
        monitor.on_commit(0, three, now=3.0)
        [violation] = self._only(monitor)
        assert violation.message == (
            f"tx (2, 2) applied twice: in block {one.hash[:12]} and "
            f"again in {three.hash[:12]} (height 3)")


class TestDeploymentAudit:
    """``Deployment.audit`` is the end-of-run belt and braces every
    campaign runner shares: the whole-chain comparison must catch a fork
    the live monitor never saw."""

    def test_forked_committed_tips_append_one_agreement_violation(self):
        cluster, monitor = _monitored_cluster()
        left = _block(1, GENESIS_HASH, view=1, op="left")
        right = _block(1, GENESIS_HASH, view=1, op="right")
        # Straight into the stores: no on_commit, so the monitor is blind.
        for node, block in ((cluster.nodes[0], left), (cluster.nodes[1], right)):
            node.store.add(block)
            node.store.commit(block)
        assert monitor.ok
        Deployment(cluster).audit(monitor)
        [violation] = monitor.violations
        assert violation.invariant == "agreement"
        assert violation.node is None
        assert ("nodes 0 and 1 committed different blocks at height 1"
                in violation.message)

    def test_clean_cluster_appends_nothing(self):
        cluster, monitor = _monitored_cluster()
        block = _block(1, GENESIS_HASH, view=1)
        for node in cluster.nodes:
            node.store.add(block)
            node.store.commit(block)
        Deployment(cluster).audit(monitor)
        assert monitor.violations == []


class TestRecoveryLiveness:
    def test_unrecovered_reboot_trips_recovery_liveness(self):
        """A node that reboots but can never finish Algorithm 3 (its f+1
        helpers are gone) must be reported, not silently tolerated."""
        cluster, monitor = _monitored_cluster(f=1)
        monitor.attach(cluster)
        cluster.start()
        cluster.run(100.0)
        # Crash both peers, then reboot one: its recovery needs f+1 = 2
        # live responders and only one replica is up — it can never finish.
        cluster.nodes[1].crash()
        cluster.nodes[2].crash()
        cluster.nodes[1].reboot()
        cluster.run(500.0)
        monitor.finalize()
        liveness = [v for v in monitor.violations
                    if v.invariant == "recovery-liveness"]
        assert liveness, monitor.violations
        assert liveness[0].node == 1
        assert "recovery episode never terminated" in liveness[0].message
        assert "RECOVERING since" in liveness[0].message

    def test_completed_recovery_is_clean(self):
        cluster, monitor = _monitored_cluster(f=1)
        monitor.attach(cluster)
        cluster.start()
        cluster.run(100.0)
        cluster.nodes[1].crash()
        cluster.run(50.0)
        cluster.nodes[1].reboot()
        cluster.run(1000.0)
        monitor.finalize()
        assert cluster.nodes[1].status is NodeStatus.RUNNING
        assert monitor.ok, [str(v) for v in monitor.violations]


class TestCounterMonotonicity:
    def test_rolled_back_counter_trips_monitor(self):
        """Forcing a trusted component's persistent counter backwards (the
        exact state a rollback attack restores) must be caught by the next
        poll with the component and both values named."""
        cluster, monitor = _monitored_cluster(f=1)
        node = cluster.nodes[0]
        node.checker.counter = ConfigurableCounter(0.1)
        node.checker.counter.value = 7
        monitor.bind(cluster)
        monitor.poll()
        assert monitor.ok
        node.checker.counter.value = 2  # the rollback
        monitor.poll()
        [violation] = monitor.violations
        assert violation.invariant == "counter-monotonicity"
        assert violation.node == 0
        assert "rolled back: 7 -> 2" in violation.message

    def test_checker_view_rollback_trips_monitor(self):
        cluster, monitor = _monitored_cluster(f=1)
        node = cluster.nodes[2]
        node.checker.state.vi = 9
        monitor.poll()
        node.checker.state.vi = 4
        monitor.poll()
        [violation] = monitor.violations
        assert violation.invariant == "checker-monotonicity"
        assert "9 -> 4" in violation.message

    def test_reboot_epoch_resets_view_tracking(self):
        """A fresh incarnation legitimately restarts from a lower view
        while recovering; the monitor must key by (node, epoch)."""
        cluster, monitor = _monitored_cluster(f=1)
        node = cluster.nodes[0]
        node.checker.state.vi = 9
        monitor.poll()
        node.epoch += 1  # what crash()/reboot() do
        node.checker.state.vi = 0
        monitor.poll()
        assert monitor.ok


class TestCertifiedCommits:
    def test_commit_without_certificate_trips_at_finalize(self):
        cluster, monitor = _monitored_cluster()
        block = _block(1, GENESIS_HASH, view=1)
        covered = _block(2, block.hash, view=2)

        class FakeQC:
            block_hash = covered.hash
            view = 2

        # Node 0 certifies nothing it committed: first commit stays
        # uncovered even after the (invalid, unrelated) cert check below.
        monitor.on_commit(0, block, now=1.0)
        monitor._certifying_nodes.add(0)
        monitor.finalize()
        certified = [v for v in monitor.violations
                     if v.invariant == "certified-commit"]
        assert certified
        assert "never covered by a commitment certificate" in certified[0].message

    def test_real_run_certifies_every_commit(self):
        cluster, monitor = _monitored_cluster()
        monitor.attach(cluster)
        cluster.start()
        cluster.run(300.0)
        monitor.finalize()
        assert monitor._certifying_nodes, "achilles must report certificates"
        assert monitor.ok, [str(v) for v in monitor.violations]


class TestPostQuiesceLiveness:
    def test_stalled_cluster_trips_liveness(self):
        cluster, monitor = _monitored_cluster()
        monitor.bind(cluster)
        monitor.mark_quiesced()  # nothing committed, nothing ever will be
        monitor.finalize()
        [violation] = monitor.violations
        assert violation.invariant == "post-quiesce-liveness"
        assert "committed height stuck at 0" in violation.message

    def test_progress_after_quiesce_is_clean(self):
        cluster, monitor = _monitored_cluster()
        monitor.attach(cluster)
        cluster.start()
        cluster.run(100.0)
        monitor.mark_quiesced()
        cluster.run(200.0)
        monitor.finalize()
        assert monitor.ok, [str(v) for v in monitor.violations]


class TestListenerChaining:
    def test_inner_listener_still_sees_events(self):
        events = []

        class Recorder:
            def on_propose(self, node, block, now):
                events.append(("propose", node))

            def on_commit(self, node, block, now):
                events.append(("commit", node))

            def on_reply(self, node, tx, now):
                events.append(("reply", node))

        monitor = InvariantMonitor(inner=Recorder())
        block = _block(1, GENESIS_HASH, view=1)
        monitor.on_propose(0, block, 1.0)
        monitor.on_commit(0, block, 2.0)
        monitor.on_reply(0, None, 3.0)
        assert events == [("propose", 0), ("commit", 0), ("reply", 0)]

    def test_violation_str_format(self):
        violation = InvariantViolation("agreement", 12.5, 3, "boom")
        assert str(violation) == "[agreement] t=12.500 ms node 3: boom"
        cluster_wide = InvariantViolation("post-quiesce-liveness", 1.0, None, "x")
        assert "cluster: x" in str(cluster_wide)
