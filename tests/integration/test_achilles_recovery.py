"""Integration tests: rollback-resilient recovery (Algorithm 3)."""

from __future__ import annotations

import pytest

from repro.core.node import NodeStatus
from repro.errors import ConfigurationError
from repro.faults.scenarios import (
    LEADER,
    Crash,
    FaultPlan,
    crash_and_reboot,
    install_crashes,
    install_plan,
)
from repro.harness.invariants import InvariantMonitor
from repro.harness.runner import Deployment

from tests.conftest import achilles_cluster, fast_config


class TestSingleRecovery:
    def test_rebooted_node_recovers_and_rejoins(self):
        cluster = achilles_cluster(f=2)
        crash_and_reboot(cluster, node_id=3, at_ms=80.0, downtime_ms=10.0)
        cluster.start()
        cluster.run(600.0)
        cluster.assert_safety()
        node = cluster.nodes[3]
        assert node.status is NodeStatus.RUNNING
        assert len(node.recovery_episodes) == 1
        episode = node.recovery_episodes[0]
        assert episode.init_ms > 0
        assert episode.protocol_ms > 0
        # The recovered node catches back up with the committed chain.
        assert node.store.committed_tip.height >= \
            cluster.min_committed_height() - 2

    def test_recovered_view_jumps_past_observed(self):
        cluster = achilles_cluster(f=2)
        cluster.start()
        cluster.run(100.0)
        node = cluster.nodes[3]
        views_at_crash = max(n.checker.state.vi for n in cluster.nodes)
        node.crash()
        cluster.run(5.0)
        node.reboot()
        cluster.run(200.0)
        assert node.status is NodeStatus.RUNNING
        # v' + 2 rule: the checker resumed strictly above what anyone held.
        assert node.checker.state.vi >= views_at_crash + 2 - 1  # views moved on

    def test_progress_not_blocked_during_recovery(self):
        cluster = achilles_cluster(f=2)
        crash_and_reboot(cluster, node_id=4, at_ms=80.0, downtime_ms=50.0)
        cluster.start()
        cluster.run(400.0)
        cluster.assert_safety()
        # Other nodes kept committing while node 4 was away.
        assert cluster.nodes[0].store.committed_tip.height >= 20

    def test_leader_reboot_recovers_via_next_leaders(self):
        """A crashed *current leader* must wait for views to move on
        (Sec. 4.5: it cannot get a reply from itself)."""
        cluster = achilles_cluster(f=2)
        cluster.start()
        cluster.run(100.0)
        # Crash whoever is the current leader right now.
        view = max(n.view for n in cluster.nodes)
        leader = view % cluster.config.n
        crash_and_reboot(cluster, node_id=leader, at_ms=cluster.sim.now + 1.0,
                         downtime_ms=5.0)
        cluster.run(600.0)
        cluster.assert_safety()
        node = cluster.nodes[leader]
        assert node.status is NodeStatus.RUNNING
        assert node.recovery_episodes

    def test_recovery_survives_rtt_above_retry_period(self):
        """Regression (found by ``repro chaos``, achilles seed 16): the
        recovery nonce is minted once per episode and the *same* request is
        retransmitted on retry.  Minting a fresh nonce per retry discarded
        every reply whose round trip exceeded ``recovery_retry_ms``, so any
        link delay above half the retry period livelocked the recovery."""
        from repro.net.adversary import NetworkAdversary

        adversary = NetworkAdversary()
        config = fast_config(f=1)  # recovery_retry_ms=10
        cluster = achilles_cluster(f=1, config=config, adversary=adversary)
        cluster.start()
        cluster.run(100.0)
        # One-way delay alone now exceeds the whole retry period.
        adversary.delay_link(None, None, config.recovery_retry_ms + 2.0)
        node = cluster.nodes[2]
        node.crash()
        cluster.run(5.0)
        node.reboot()
        cluster.run(600.0)
        cluster.assert_safety()
        assert node.status is NodeStatus.RUNNING
        assert len(node.recovery_episodes) == 1

    def test_repeated_reboots_of_same_node(self):
        cluster = achilles_cluster(f=2)
        install_crashes(cluster, [Crash(80.0, 2, 90.0),
                                  Crash(300.0, 2, 310.0)])
        cluster.start()
        cluster.run(700.0)
        cluster.assert_safety()
        assert len(cluster.nodes[2].recovery_episodes) == 2
        assert cluster.nodes[2].status is NodeStatus.RUNNING


class TestConcurrentRecoveries:
    def test_f_concurrent_reboots_recover(self):
        cluster = achilles_cluster(f=2)
        install_crashes(cluster, [Crash(80.0, 1, 95.0),
                                  Crash(82.0, 3, 97.0)])
        cluster.start()
        cluster.run(900.0)
        cluster.assert_safety()
        for victim in (1, 3):
            assert cluster.nodes[victim].status is NodeStatus.RUNNING
            assert cluster.nodes[victim].recovery_episodes

    def test_rolling_reboots_across_committee(self):
        # Spacing must exceed the worst-case convergence hiccup after a
        # recovery: the recovered node skips two views (v'+2 rule), so the
        # pacemaker needs up to two timeout rounds (base + doubled) to walk
        # past the views it abstains from.
        config = fast_config(f=2, base_timeout_ms=20.0)
        cluster = achilles_cluster(f=2, config=config)
        # Every replica in turn, 400 ms apart, down 10 ms each.
        install_crashes(cluster, [Crash(100.0 + 400.0 * node, node,
                                        110.0 + 400.0 * node)
                                  for node in range(5)])
        cluster.start()
        cluster.run(2400.0)
        cluster.assert_safety()
        recovered = sum(1 for n in cluster.nodes if n.recovery_episodes)
        assert recovered == 5
        assert all(n.status is NodeStatus.RUNNING for n in cluster.nodes)

    @pytest.mark.parametrize("crashes,refused", [
        # f+1 concurrently — beyond the bound
        ([Crash(50.0 + i, v, 150.0 + i) for i, v in enumerate((0, 1, 2))],
         True),
        # a guarded storm bounds itself
        ([Crash(50.0 + i, v, 150.0 + i, guarded=True)
          for i, v in enumerate((0, 1, 2))], False),
        # a replica crashed twice is one down
        ([Crash(50.0 + i, v, 150.0 + i) for i, v in enumerate((0, 1, 1))],
         False),
        # a rollback victim counts as down for the rest of the run
        ([Crash(50.0, 0, 60.0, rollback=True),
          Crash(100.0, 1, 110.0, rollback=True), Crash(200.0, 2, 210.0)],
         True),
    ])
    def test_excessive_concurrent_schedule_rejected(self, crashes, refused):
        cluster = achilles_cluster(f=2)
        plan = FaultPlan(500.0, crashes=tuple(crashes))
        deployment, monitor = Deployment(cluster), InvariantMonitor()
        if refused:
            with pytest.raises(ConfigurationError, match="f=2"):
                install_plan(deployment, plan, monitor)
        else:
            assert install_plan(deployment, plan, monitor).fired == 0

    def test_excessive_reboots_stall_liveness_as_documented(self):
        """Sec. 6.3: with more than f nodes down, no one can collect f+1
        recovery replies, so the rebooted nodes stay in recovery.  The
        crashes are installed directly: only a plan is held to the bound."""
        cluster = achilles_cluster(f=2)
        install_crashes(cluster, [Crash(50.0, victim, 80.0)
                                  for victim in (0, 1, 2, 3)])
        cluster.start()
        cluster.run(400.0)
        stuck = [n for n in cluster.nodes
                 if n.status is NodeStatus.RECOVERING]
        # 4 rebooted but only 1 stayed up: nobody can gather f+1 replies
        # until... in fact replies can only come from RUNNING nodes, and
        # only node 4 is running — recovery cannot complete.
        assert len(stuck) == 4


#: rule -> (crashes on a 3-replica cluster, fired, skipped, attackers,
#: the (kind, time, node) crash and reboot records the run leaves; a
#: ``LEADER`` node there is the replica that led when the crash fired).
INSTALLER_RULES = {
    "a guarded crash while a replica is down is skipped": (
        [Crash(80.0, 1, 150.0), Crash(100.0, 2, 120.0, guarded=True)],
        1, 1, 0, [("crash", 80.0, 1), ("reboot", 150.0, 1)]),
    # At 70 ms the replicas are in views 76, 75 and 75: replica 1 leads.
    "LEADER hits the replica that leads at fire time": (
        [Crash(70.0, LEADER, 80.0)],
        1, 0, 0, [("crash", 70.0, LEADER), ("reboot", 80.0, LEADER)]),
    "an unguarded crash of a crashed replica still fires": (
        [Crash(80.0, 1, 120.0), Crash(90.0, 1, 130.0)],
        2, 0, 0, [("crash", 80.0, 1), ("crash", 90.0, 1),
                  ("reboot", 120.0, 1), ("reboot", 130.0, 1)]),
    "each rollback reboot mounts its own attacker": (
        [Crash(80.0, 2, 90.0, rollback=True),
         Crash(250.0, 2, 260.0, rollback=True)],
        2, 0, 2, [("crash", 80.0, 2), ("reboot", 90.0, 2),
                  ("crash", 250.0, 2), ("reboot", 260.0, 2)]),
    "the reboot lands at reboot_at_ms": (
        [Crash(80.3, 0, 97.1)],
        1, 0, 0, [("crash", 80.3, 0), ("reboot", 97.1, 0)]),
}


@pytest.mark.parametrize("rule", sorted(INSTALLER_RULES))
def test_install_crashes_keeps_its_rules(rule):
    crashes, fired, skipped, attackers, records = INSTALLER_RULES[rule]
    cluster = achilles_cluster(f=1)
    leaders: list = []

    def note_leader():
        views = [node.view for node in cluster.nodes if node.alive]
        leaders.append(cluster.nodes[0].leader_of(max(views)))

    for crash in crashes:
        if crash.node == LEADER:  # queued first, so it fires first
            cluster.sim.schedule_at(crash.at_ms, note_leader)
    log = install_crashes(cluster, crashes)
    cluster.sim.trace.enabled = True    # the crash and reboot records
    cluster.start()
    cluster.run(500.0)
    cluster.assert_safety()
    assert (log.fired, log.skipped) == (fired, skipped)
    assert len(log.attackers) == len({id(a) for a in log.attackers}) \
        == attackers
    assert log.rollbacks_mounted == 0  # Achilles never unseals its state
    expected = [(kind, at, leaders[0] if node == LEADER else node)
                for kind, at, node in records]
    assert [(e.kind, e.time, e.node) for e in cluster.sim.trace.events
            if e.kind in ("crash", "reboot")] == expected
    assert all(node.status is NodeStatus.RUNNING for node in cluster.nodes)


class TestRecoveryMetrics:
    def test_breakdown_matches_paper_shape(self):
        """Initialization grows mildly with n; recovery stays small
        (Table 2)."""
        from repro.harness.experiments import table2_recovery_breakdown

        rows = table2_recovery_breakdown(node_counts=(3, 21, 61))
        assert all(r["recovered"] for r in rows)
        init = [r["initialization_ms"] for r in rows]
        total = [r["total_ms"] for r in rows]
        assert init[0] < init[1] < init[2]          # grows with n
        assert total[2] < 2 * total[0]              # but only mildly
        assert all(r["recovery_ms"] < r["initialization_ms"] for r in rows)
