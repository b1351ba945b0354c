"""Unit tests for config, metrics, workloads, pacemaker, and reporting."""

from __future__ import annotations

import pytest

from repro.chain.block import create_leaf, genesis_block
from repro.chain.transaction import Transaction
from repro.client.workload import (
    FiniteWorkload,
    OpenLoopGenerator,
    QueueSource,
    SaturatedSource,
    make_payload,
)
from repro.consensus.cluster import build_cluster
from repro.consensus.config import NodeCosts, ProtocolConfig
from repro.consensus.pacemaker import Pacemaker
from repro.core.node import AchillesNode
from repro.errors import ConfigurationError
from repro.harness.metrics import LatencyStats, MetricsCollector
from repro.harness.report import format_table
from repro.net.latency import LAN_PROFILE
from repro.net.message import Envelope
from repro.sim.loop import Simulator
from repro.sim.process import Process


class TestProtocolConfig:
    def test_quorums(self):
        assert ProtocolConfig.tee_committee(f=3).quorum == 4       # f+1
        assert ProtocolConfig(n=10, f=3).quorum == 7               # 2f+1
        assert ProtocolConfig(n=9, f=2).quorum == 7                # n-f fallback

    def test_invalid_committee_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(n=0, f=0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(n=3, f=-1)

    def test_with_updates_functionally(self):
        config = ProtocolConfig.tee_committee(f=2)
        updated = config.with_(batch_size=999)
        assert updated.batch_size == 999
        assert config.batch_size != 999

    def test_make_counter_default_null(self):
        config = ProtocolConfig.tee_committee(f=1)
        assert config.make_counter().write_ms == 0.0

    def test_node_costs(self):
        costs = NodeCosts(msg_recv_ms=0.01, deserialize_per_kb_ms=0.001)
        assert costs.exec_cost(100) == pytest.approx(0.05)
        # The receive cost is reserved where a message arrives.
        for node_costs, size, busy in ((costs, 2048, 0.012),
                                       (NodeCosts.free(), 10**6, 0.0)):
            node = build_cluster(
                AchillesNode, ProtocolConfig.tee_committee(f=1, costs=node_costs),
                LAN_PROFILE).nodes[0]
            node.deliver(Envelope(1, 0, "x", size, 0.0))
            assert node.cpu.busy_until == pytest.approx(busy)


class TestLatencyStats:
    def test_mean_and_percentiles(self):
        stats = LatencyStats()
        for v in range(1, 101):
            stats.add(float(v))
        assert stats.mean == pytest.approx(50.5)
        assert stats.p50 == 50.0
        assert stats.p99 == 99.0
        assert stats.percentile(100) == 100.0

    def test_empty(self):
        stats = LatencyStats()
        assert stats.mean == 0.0
        assert stats.p99 == 0.0
        assert stats.count == 0


class TestMetricsCollector:
    def _block(self, n_txs=3, view=1):
        txs = tuple(Transaction(client_id=0, tx_id=i, created_at=0.0)
                    for i in range(n_txs))
        return create_leaf(txs, "op", genesis_block(), view=view, proposer=0)

    def test_commit_latency_from_first_propose_to_first_commit(self):
        collector = MetricsCollector()
        block = self._block()
        collector.on_propose(0, block, now=10.0)
        collector.on_commit(1, block, now=14.0)
        collector.on_commit(2, block, now=99.0)  # later commits ignored
        assert collector.commit_latency.mean == pytest.approx(4.0)
        assert collector.blocks_committed == 1
        assert collector.txs_committed == 3

    def test_warmup_excludes_early_commits(self):
        collector = MetricsCollector(warmup_ms=100.0)
        early = self._block(view=1)
        late = self._block(view=2)
        collector.on_propose(0, early, now=10.0)
        collector.on_commit(0, early, now=20.0)
        collector.on_propose(0, late, now=150.0)
        collector.on_commit(0, late, now=160.0)
        assert collector.blocks_committed == 1

    def test_reply_dedupe_and_e2e(self):
        collector = MetricsCollector(reply_one_way_ms=0.5)
        tx = Transaction(client_id=0, tx_id=1, created_at=5.0)
        collector.on_reply(0, tx, now=9.5)
        collector.on_reply(1, tx, now=50.0)  # duplicate, ignored
        assert collector.e2e_latency.count == 1
        assert collector.e2e_latency.mean == pytest.approx(5.0)

    def test_batched_replies_equal_the_per_transaction_reference(self):
        # on_replies marks and samples a block in one pass; on_reply, one
        # transaction at a time, is its reference.  The reports cover a
        # warm-up batch, overlap with it, a key repeated inside one batch,
        # a re-report of a whole block and an empty one.
        def block(view, *ids):
            return create_leaf(
                tuple(Transaction(client_id=0, tx_id=i, created_at=i * 0.5)
                      for i in ids), "op", genesis_block(), view, 0)
        repeated = block(3, 5, 6, 5, 7, 6)
        reports = [(0, block(1, 1, 2, 3), 5.0), (1, block(2, 3, 4), 6.0),
                   (0, repeated, 20.0), (2, repeated, 21.0),
                   (1, block(4, 2, 7, 8), 30.0), (0, block(5), 31.0)]
        batched = MetricsCollector(warmup_ms=10.0, window_ms=8.0)
        single = MetricsCollector(warmup_ms=10.0, window_ms=8.0)
        for node, reported, now in reports:
            batched.on_replies(node, reported, now)
            for tx in reported.txs:
                single.on_reply(node, tx, now)
        assert batched.e2e_latency.samples == single.e2e_latency.samples
        assert batched.e2e_latency.count == 4
        assert batched.duplicate_replies == single.duplicate_replies == 10
        assert set(batched._replied) == set(single._replied)
        assert batched.e2e_windows.indices() == single.e2e_windows.indices()
        for idx in single.e2e_windows.indices():
            assert batched.e2e_windows.window(idx).samples == \
                single.e2e_windows.window(idx).samples

    def test_throughput(self):
        collector = MetricsCollector(warmup_ms=0.0)
        for view in range(1, 11):
            block = self._block(n_txs=100, view=view)
            collector.on_propose(0, block, now=view * 10.0)
            collector.on_commit(0, block, now=view * 10.0 + 1)
        # 1000 txs by t=101ms → ~9.9 KTPS
        assert collector.throughput_ktps() == pytest.approx(1000 / 101.0 * 1000 / 1000,
                                                            rel=0.01)
        assert collector.throughput_ktps(measured_until=200.0) == pytest.approx(
            1000 / 200.0, rel=0.01)

    def test_summary_keys(self):
        summary = MetricsCollector().summary()
        assert {"txs_committed", "throughput_ktps", "commit_latency_ms",
                "e2e_latency_ms"} <= set(summary)


class TestWorkloads:
    def test_saturated_source_always_serves(self):
        sim = Simulator()
        source = SaturatedSource(sim, payload_size=256, client_one_way_ms=1.0)
        txs = source.take(5, now=10.0)
        assert len(txs) == 5
        assert all(tx.created_at == 9.0 for tx in txs)
        assert all(tx.wire_size() == 264 for tx in txs)
        assert source.pending() > 0

    def test_queue_source_fifo_and_dedupe(self):
        q = QueueSource()
        tx = Transaction(client_id=0, tx_id=1)
        assert q.submit(tx)
        assert not q.submit(tx)
        assert q.duplicates_dropped == 1
        assert list(q.take(10, now=0.0)) == [tx]
        assert q.pending() == 0

    def test_open_loop_rate(self):
        sim = Simulator(seed=4)
        q = QueueSource()
        gen = OpenLoopGenerator(sim, q, rate_tps=10_000, payload_size=0,
                                client_one_way_ms=0.0)
        gen.start()
        sim.run(until=1000.0)  # one second at 10K TPS
        assert 8_000 <= q.submitted <= 12_000
        gen.stop()
        before = q.submitted
        sim.run(until=1100.0)
        assert q.submitted <= before + 1  # generation stopped

    def test_open_loop_rate_zero_is_a_pause(self):
        # 2000 tps -> 0 at 50 ms -> 2000 at 150 ms.  A rate step to zero
        # used to end the arrival process for good, silently.
        sim = Simulator(seed=4)
        q = QueueSource()
        gen = OpenLoopGenerator(sim, q, rate_tps=2000.0, payload_size=0,
                                client_one_way_ms=0.0)
        gen.start()
        sim.schedule_at(50.0, lambda: setattr(gen, "rate_tps", 0.0))
        sim.schedule_at(150.0, lambda: setattr(gen, "rate_tps", 2000.0))
        sim.run(until=1150.0)
        created = [tx.created_at for tx in q.take(10_000, now=sim.now)]
        assert created == sorted(created)
        assert not [t for t in created if 50.0 <= t < 150.0]
        assert 60 <= sum(1 for t in created if t < 50.0) <= 140
        resumed = [t for t in created if t >= 150.0]
        assert 1_800 <= len(resumed) <= 2_200  # one second at 2000 tps
        assert resumed[0] < 155.0  # the gap is drawn at the resume instant

    def test_finite_workload(self):
        sim = Simulator()
        w = FiniteWorkload(sim, count=7, payload_prefix="SET k")
        assert w.pending() == 7
        taken = w.take(3, now=0.0)
        assert len(taken) == 3
        assert w.pending() == 4

    def test_make_payload_size(self):
        assert len(make_payload(256).encode()) == 256
        assert make_payload(0) == ""


def replica(sim) -> Process:
    """A process carrying the replica config the pacemaker reads."""
    p = Process(sim, "p")
    p.config = ProtocolConfig(n=1, f=0)
    return p


class TestPacemaker:
    def test_fires_on_timeout(self):
        sim = Simulator()
        p = replica(sim)
        fired = []
        pm = Pacemaker(p, base_timeout_ms=10.0, on_timeout=fired.append)
        pm.view_started(1)
        sim.run(until=25.0)
        assert fired == [1]

    def test_progress_resets_backoff(self):
        sim = Simulator()
        p = replica(sim)
        pm = Pacemaker(p, base_timeout_ms=10.0, on_timeout=lambda v: None)
        pm.view_started(1)
        sim.run(until=15.0)
        assert pm.current_timeout_ms == 20.0  # doubled after a timeout
        pm.progress()
        assert pm.current_timeout_ms == 10.0

    def test_exponential_backoff_capped(self):
        sim = Simulator()
        p = replica(sim)
        p.config = p.config.with_(pacemaker_max_doublings=3)
        pm = Pacemaker(p, base_timeout_ms=10.0, on_timeout=lambda v: None)
        pm._consecutive_timeouts = 100
        assert pm.current_timeout_ms == 80.0

    def test_view_start_rearms(self):
        sim = Simulator()
        p = replica(sim)
        fired = []
        pm = Pacemaker(p, base_timeout_ms=10.0, on_timeout=fired.append)
        pm.view_started(1)
        sim.run(until=8.0)
        pm.view_started(2)  # re-arm before firing
        sim.run(until=16.0)
        assert fired == []  # old timer replaced
        sim.run(until=30.0)
        assert fired == [2]


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(
            ["proto", "tput"], [["achilles", 49.76], ["damysus-r", 2.6551]],
            title="Fig 3c",
        )
        lines = table.splitlines()
        assert lines[0] == "Fig 3c"
        assert "achilles" in lines[3]  # title, header, rule, then rows
        assert "49.76" in table
        assert "2.66" in table  # floats < 100 render with 2 decimals
