"""The replica lifecycle, held to one contract on every registered protocol.

``ReplicaBase.reboot`` is a template (host reset → RECOVERING →
``_reset_volatile`` → ``_restart_trusted`` → ``_rejoin`` → ``_resume``);
a protocol fills in the three hooks and nothing else.  What used to be
checked on Achilles alone (``test_crash_during_recovery.py``) is checked
here on whatever ``PROTOCOLS`` holds, so a ninth protocol is under the
contract the moment it registers.
"""

from __future__ import annotations

import pytest

from repro.consensus.base import NodeStatus, ReplicaBase
from repro.harness.metrics import MetricsCollector
from repro.harness.runner import (PROTOCOLS, build_deployment, protocol_config,
                                  resolve_network, resolve_protocol)

resolve_protocol("achilles")  # fills the registry
PROTOCOL_NAMES = sorted(PROTOCOLS)

#: Long enough for enclave bring-up plus a recovery round trip on a LAN.
BRING_UP_MS = 60.0


def deployment(name: str):
    spec = resolve_protocol(name)
    config = protocol_config(spec, 1, 3, counter_write_ms=1.0,
                             batch_size=20, payload_size=16,
                             base_timeout_ms=50.0, recovery_retry_ms=10.0)
    built = build_deployment(spec, config, resolve_network("LAN"), 3,
                             listener=MetricsCollector())
    built.cluster.start()
    built.cluster.run(60.0)
    return built.cluster


def view_timer_armed(node) -> bool:
    if node.pacemaker is not None:
        return node.pacemaker.armed
    return node._election_timer.pending  # BRaft


def a_backup(cluster):
    """A replica that leads nothing right now (the last one never leads
    the first views of a three-node committee's stable-leader protocols)."""
    return cluster.nodes[-1]


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
class TestLifecycleContract:
    def test_crash_leaves_nothing_armed(self, name):
        cluster = deployment(name)
        node = a_backup(cluster)
        assert node.status is NodeStatus.RUNNING and view_timer_armed(node)
        node.crash()
        assert node.status is NodeStatus.CRASHED
        assert not node.alive
        assert not view_timer_armed(node)
        assert not node._batch_timer.pending
        timeouts = node.pacemaker.timeouts_fired if node.pacemaker else 0
        sent = cluster.network.stats.messages_sent
        height = node.store.committed_tip.height
        cluster.run(150.0)
        # The dead host times out of nothing and commits nothing.
        assert (node.pacemaker.timeouts_fired
                if node.pacemaker else 0) == timeouts
        assert node.store.committed_tip.height == height
        assert not node._outbox
        assert cluster.network.stats.messages_sent > sent  # the rest go on

    @pytest.mark.parametrize("with_keyword", [False, True])
    def test_reboot_brings_the_replica_back_running_and_armed(
            self, name, with_keyword):
        cluster = deployment(name)
        node = a_backup(cluster)
        node.crash()
        cluster.run(20.0)
        if with_keyword:
            node.reboot(rollback_attacker=None)
        else:
            node.reboot()
        assert node.alive
        assert node.status in (NodeStatus.RUNNING, NodeStatus.RECOVERING)
        cluster.run(BRING_UP_MS)
        assert node.status is NodeStatus.RUNNING
        assert view_timer_armed(node)
        height = cluster.max_committed_height()
        cluster.run(150.0)
        cluster.assert_safety()
        assert cluster.max_committed_height() > height
        assert node.store.committed_tip.height > height

    def test_a_continuation_of_the_previous_life_is_a_no_op(self, name):
        cluster = deployment(name)
        node = a_backup(cluster)
        fired: list = []
        node.after(30.0, lambda: fired.append("after"))
        probe = node.timer("probe")
        probe.start(30.0, lambda: fired.append("timer"))
        node.crash()
        assert not probe.pending
        cluster.run(10.0)
        node.reboot()
        cluster.run(BRING_UP_MS)
        assert fired == []
        assert node.status is NodeStatus.RUNNING

    def test_a_crash_during_bring_up_then_a_reboot_starts_afresh(self, name):
        cluster = deployment(name)
        node = a_backup(cluster)
        node.crash()
        cluster.run(10.0)
        node.reboot()
        # Inside enclave bring-up for the protocols that have one: the
        # pending rejoin continuation now belongs to a dead incarnation.
        cluster.run(0.1)
        recovering = node.status is NodeStatus.RECOVERING
        episodes = len(node.recovery_episodes)
        node.crash()
        assert node.status is NodeStatus.CRASHED
        assert not view_timer_armed(node)
        cluster.run(10.0)
        assert node.status is NodeStatus.CRASHED  # nothing resurrected it
        node.reboot()
        cluster.run(BRING_UP_MS)
        assert node.status is NodeStatus.RUNNING
        assert view_timer_armed(node)
        if recovering:
            # Only the second episode ran to completion.
            assert len(node.recovery_episodes) <= episodes + 1
        height = cluster.max_committed_height()
        cluster.run(150.0)
        cluster.assert_safety()
        assert cluster.max_committed_height() > height

    def test_cold_restart_is_part_of_the_surface(self, name):
        cluster = deployment(name)
        for node in cluster.nodes:
            node.crash()
        cluster.run(20.0)
        for node in cluster.nodes:
            node.cold_restart()
        cluster.run(BRING_UP_MS)
        assert all(n.status is NodeStatus.RUNNING for n in cluster.nodes)
        height = cluster.max_committed_height()
        cluster.run(250.0)
        cluster.assert_safety()
        assert cluster.max_committed_height() > height


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_the_skeleton_is_the_only_reboot(name):
    node_cls = resolve_protocol(name).node_cls
    below = node_cls.__mro__[:node_cls.__mro__.index(ReplicaBase)]
    assert below, f"{node_cls.__name__} is not built on ReplicaBase"
    for klass in below:
        assert "reboot" not in vars(klass), (
            f"{klass.__name__} defines reboot(): override _reset_volatile / "
            f"_restart_trusted / _rejoin instead")
    hooks = ("_reset_volatile", "_restart_trusted", "_rejoin")
    assert any(hook in vars(klass) for klass in below for hook in hooks)
    assert isinstance(node_cls.RESTORES_FROM_SEAL, bool)
