"""Integration tests for the MinBFT baseline."""

from __future__ import annotations

import pytest

from repro.baselines.minbft import MinBFTNode
from repro.client.workload import SaturatedSource
from repro.consensus.cluster import build_cluster
from repro.harness.metrics import MetricsCollector
from repro.harness.runner import run_experiment
from repro.net.latency import LAN_PROFILE
from repro.tee.counters import ConfigurableCounter

from tests.conftest import fast_config


def minbft_cluster(f=2, counter_write_ms=None, seed=6):
    kwargs = {}
    if counter_write_ms is not None:
        kwargs["counter_factory"] = lambda: ConfigurableCounter(counter_write_ms)
    config = fast_config(f=f, **kwargs)
    collector = MetricsCollector()
    cluster = build_cluster(
        node_factory=MinBFTNode, config=config, latency=LAN_PROFILE,
        source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
        listener=collector, seed=seed,
    )
    cluster.collector = collector
    return cluster


class TestMinBFT:
    def test_commits_and_safety(self):
        cluster = minbft_cluster()
        cluster.start()
        cluster.run(400.0)
        cluster.assert_safety()
        assert cluster.min_committed_height() >= 20

    def test_one_usig_assignment_per_node_per_batch(self):
        cluster = minbft_cluster()
        cluster.start()
        cluster.run(300.0)
        blocks = cluster.collector.blocks_committed
        for node in cluster.nodes:
            per_block = node.usig.counter_value / max(1, blocks)
            assert 0.8 <= per_block <= 1.3

    def test_counter_serializes_two_writes_per_commit(self):
        """Paper Fig. 1 / Sec. 2.2: MinBFT's latency includes at least two
        counter write latencies (leader's + backups')."""
        cluster = minbft_cluster(counter_write_ms=20.0)
        cluster.start()
        cluster.run(800.0)
        cluster.assert_safety()
        latency = cluster.collector.commit_latency.mean
        assert 38.0 <= latency <= 55.0

    def test_leader_crash_view_change(self):
        cluster = minbft_cluster()
        cluster.start()
        cluster.run(100.0)
        height = cluster.min_committed_height()
        cluster.nodes[0].crash()  # the stable leader
        cluster.run(800.0)
        cluster.assert_safety()
        live = [n for n in cluster.nodes if n.alive]
        assert min(n.store.committed_tip.height for n in live) > height
        assert all(n.view >= 1 for n in live)

    def test_quadratic_messages(self):
        from repro.harness.analysis import messages_linear_in_n
        import math

        points = messages_linear_in_n("minbft", fs=(2, 4, 8))
        (n0, m0), (n1, m1) = points[0], points[-1]
        k = math.log(m1 / m0) / math.log(n1 / n0)
        assert k > 1.5, f"MinBFT commits broadcast all-to-all: n^{k:.2f}"

    def test_harness_integration(self):
        result = run_experiment("minbft-r", f=1, network="LAN", batch_size=50,
                                payload_size=64, duration_ms=800,
                                warmup_ms=150, seed=3)
        assert result.blocks_committed > 0
        plain = run_experiment("minbft", f=1, network="LAN", batch_size=50,
                               payload_size=64, duration_ms=800,
                               warmup_ms=150, seed=3)
        assert plain.throughput_ktps > 5 * result.throughput_ktps

    def test_reboot_rearms_pacemaker_and_drops_volatile_state(self):
        """Regression (found by ``repro chaos``, minbft seed 17): a crash
        voids every host-side timer, so a rebooted node whose pacemaker is
        never re-armed can never vote a view change — which wedges an f=1
        committee for good.  Host memory (in-flight prepares, partial
        commit quorums) must not survive the reboot either."""
        cluster = minbft_cluster(f=1)
        cluster.start()
        cluster.run(100.0)
        node = cluster.nodes[1]
        node.crash()
        cluster.run(20.0)
        node.reboot()
        assert node.pacemaker.armed
        assert node._prepares == {} and node._commit_uis == {}
        cluster.run(200.0)
        cluster.assert_safety()

    def test_view_change_votes_converge_on_proposed_view(self):
        """Regression (found by ``repro chaos``, minbft seeds 14/17): each
        node used to vote only for its *own* ``view+1``, so replicas whose
        timeouts diverged could never assemble f+1 votes on any one view.
        A node now echo-joins a higher proposed view, converging the votes
        (safety is the USIG's job; the view is just a leader epoch)."""
        from repro.baselines.minbft import MViewChange
        from repro.crypto.signatures import sign

        cluster = minbft_cluster(f=1)
        cluster.start()
        cluster.run(50.0)
        voter, receiver = cluster.nodes[2], cluster.nodes[0]
        vc = MViewChange(new_view=5,
                         signature=sign(voter.keypair.private, "MVC", 5))
        receiver.on_MViewChange(vc, src=2)
        # The receiver's echoed vote + the sender's vote reach f+1 = 2.
        assert receiver.view == 5

    def test_no_ui_on_conflicting_same_height_prepare(self):
        """Regression (found by ``repro chaos``, minbft seed 11): after a
        leader change, the new leader could propose a fresh block at a
        height where the old leader's block was mid-commit; a backup that
        UI-certified both would let two conflicting f+1 commit quorums
        form — a fork.  Certification is now height-keyed: one block hash
        per height, ever."""
        from repro.baselines.minbft import MPrepare
        from repro.chain.block import create_leaf
        from repro.chain.execution import execute_transactions
        from repro.chain.transaction import EMPTY_BATCH
        from repro.crypto.hashing import digest_of

        cluster = minbft_cluster(f=1)
        cluster.start()
        cluster.run(50.0)
        leader0, leader1, backup = cluster.nodes
        parent = backup.store.committed_tip

        def prepare_from(leader, view):
            op = execute_transactions(EMPTY_BATCH, parent.hash)
            # Same height, same parent — only the view differs, which is
            # enough to give the two blocks different hashes.
            block = create_leaf(EMPTY_BATCH, op, parent, view=view,
                                proposer=leader.node_id)
            digest = digest_of("mprep", view, block.hash)
            ui = leader.usig.create_ui(digest)
            return MPrepare(view=view, block=block, ui=ui), digest

        prepare_a, digest_a = prepare_from(leader0, view=0)
        prepare_b, digest_b = prepare_from(leader1, view=1)
        assert prepare_a.block.hash != prepare_b.block.hash
        backup.on_MPrepare(prepare_a, src=0)
        backup.on_MPrepare(prepare_b, src=1)
        assert digest_a in backup._prepares
        assert digest_b not in backup._prepares  # refused: would equivocate
        assert backup.store.is_committed(prepare_a.block.hash)
        assert not backup.store.is_committed(prepare_b.block.hash)

    def test_achilles_outperforms_minbft_r(self):
        """The paper's framing: Achilles removes exactly the counter cost
        MinBFT-R demonstrates."""
        minbft_r = run_experiment("minbft-r", f=2, network="LAN",
                                  batch_size=100, payload_size=64,
                                  duration_ms=800, warmup_ms=150, seed=2)
        achilles = run_experiment("achilles", f=2, network="LAN",
                                  batch_size=100, payload_size=64,
                                  duration_ms=800, warmup_ms=150, seed=2)
        assert achilles.throughput_ktps > 10 * minbft_r.throughput_ktps
