"""Unit tests for :mod:`repro.obs` — span tracer mechanics, critical-path
bucket arithmetic, and the Perfetto schema validator — plus the bounded
span recorder (``SpanTracer.max_spans``), the unbounded ``TraceRecorder``
and the metrics-collector memory fixes that ride along."""

from __future__ import annotations

import pytest

from repro.chain.block import genesis_block
from repro.harness.metrics import LatencyStats, MetricsCollector
from repro.obs.critical_path import BUCKETS, attribute_block, critical_path_report
from repro.obs.perfetto import to_perfetto, validate_trace
from repro.obs.spans import BlockRecord, SpanTracer
from repro.sim.trace import TraceRecorder


class TestSpanTracerWork:
    def test_open_close_pairs(self):
        tracer = SpanTracer(enabled=True)
        sid = tracer.open_work(node=0, now=10.0)
        assert tracer.current_sid == sid
        tracer.add_part("crypto", "sign", 0.05)
        tracer.close_work(sid, cpu_start=10.0, finish=10.5)
        assert tracer.current_sid is None
        span = tracer.get(sid)
        assert span.kind == "work"
        assert span.t0 == 10.0 and span.t1 == 10.5
        assert span.parts == (("crypto", "sign", 0.05),)

    def test_staged_dispatch_names_and_links(self):
        tracer = SpanTracer(enabled=True)
        net = tracer.net_span(cause=None, msg_id=7, src=1, dst=0,
                              name="Proposal", t0=1.0, t1=1.2, size=100)
        tracer.stage_dispatch(node=0, name="Proposal", arrival=1.2,
                              cause=tracer.take_route(7))
        sid = tracer.open_work(node=0, now=1.3)
        tracer.close_work(sid, cpu_start=1.3, finish=1.4)
        span = tracer.get(sid)
        assert span.name == "Proposal"
        assert span.parent == net
        assert span.attrs["arrival"] == 1.2

    def test_stale_stage_not_consumed_by_other_node(self):
        tracer = SpanTracer(enabled=True)
        tracer.stage_dispatch(node=3, name="Vote", arrival=2.0, cause=None)
        sid = tracer.open_work(node=0, now=2.5)  # different node: a timer task
        tracer.close_work(sid, cpu_start=2.5, finish=2.6)
        span = tracer.get(sid)
        assert span.name == "task"
        assert span.attrs["arrival"] == 2.5

    def test_orphan_part_becomes_mark(self):
        tracer = SpanTracer(enabled=True)
        tracer.add_part("crypto", "sign", 0.07)
        assert len(tracer.spans) == 1
        mark = next(iter(tracer.spans))
        assert mark.kind == "mark" and mark.name == "crypto:sign"

    def test_route_taken_once(self):
        tracer = SpanTracer(enabled=True)
        tracer.net_span(cause=None, msg_id=9, src=0, dst=1,
                        name="Vote", t0=0.0, t1=0.1)
        assert tracer.take_route(9) is not None
        assert tracer.take_route(9) is None


class TestSpanTracerRing:
    def test_max_spans_evicts_oldest_but_counts_all(self):
        tracer = SpanTracer(enabled=True, max_spans=4)
        for i in range(10):
            tracer.instant("tick", node=0, now=float(i))
        assert len(tracer.spans) == 4
        assert tracer.total_spans == 10
        kept = [span.t0 for span in tracer.spans]
        assert kept == [6.0, 7.0, 8.0, 9.0]

    def test_evicted_spans_unresolvable(self):
        tracer = SpanTracer(enabled=True, max_spans=2)
        first = tracer.open_work(node=0, now=0.0)
        tracer.close_work(first, cpu_start=0.0, finish=0.1)
        for i in range(5):
            tracer.instant("tick", node=0, now=float(i))
        assert tracer.get(first) is None


class TestPhasesAndBlocks:
    def test_phase_open_close(self):
        tracer = SpanTracer(enabled=True)
        tracer.begin_phase("recovery", node=2, now=5.0)
        tracer.end_phase("recovery", node=2, now=9.0, view=3)
        span = next(iter(tracer.spans))
        assert span.kind == "phase" and span.duration == 4.0
        assert span.attrs["view"] == 3

    def test_flush_open_phases_truncates(self):
        tracer = SpanTracer(enabled=True)
        tracer.begin_phase("recovery", node=1, now=5.0)
        tracer.flush_open_phases(now=7.5)
        span = next(iter(tracer.spans))
        assert span.attrs["truncated"] is True and span.t1 == 7.5

    def test_block_lifecycle_first_commit_wins(self):
        tracer = SpanTracer(enabled=True)
        tracer.block_proposed("h1", view=0, proposer=0, txs=10, now=1.0)
        tracer.block_milestone("h1", "vote", node=1, now=1.5)
        tracer.block_committed("h1", node=1, now=2.0)
        tracer.block_committed("h1", node=2, now=3.0)  # later: ignored
        tracer.block_milestone("h1", "late", node=2, now=3.5)  # post-commit
        record = tracer.blocks["h1"]
        assert record.t_commit == 2.0 and record.commit_node == 1
        assert [m[0] for m in record.milestones] == ["vote"]


class TestDigest:
    def test_digest_deterministic_and_sensitive(self):
        def build():
            tracer = SpanTracer(enabled=True)
            sid = tracer.open_work(node=0, now=0.0)
            tracer.add_part("crypto", "sign", 0.05)
            tracer.close_work(sid, cpu_start=0.0, finish=0.2)
            tracer.block_proposed("h", 0, 0, 5, 0.0)
            tracer.block_committed("h", 1, 0.2)
            return tracer
        assert build().digest() == build().digest()
        other = build()
        other.instant("extra", node=0, now=0.3)
        assert other.digest() != build().digest()


class TestCriticalPath:
    def _one_hop_chain(self):
        """proposer work -> net -> committer work, commit inside handler."""
        tracer = SpanTracer(enabled=True)
        propose = tracer.open_work(node=0, now=0.0)
        tracer.add_part("crypto", "sign", 0.1)
        tracer.block_proposed("h", view=0, proposer=0, txs=4, now=0.0)
        tracer.close_work(propose, cpu_start=0.0, finish=0.4)
        net = tracer.net_span(cause=propose, msg_id=1, src=0, dst=1,
                              name="Proposal", t0=0.4, t1=0.6)
        tracer.stage_dispatch(node=1, name="Proposal", arrival=0.6,
                              cause=tracer.take_route(1))
        handler = tracer.open_work(node=1, now=0.6)
        tracer.block_committed("h", node=1, now=0.6)
        tracer.close_work(handler, cpu_start=0.6, finish=0.9)
        return tracer

    def test_one_hop_attribution_telescopes(self):
        tracer = self._one_hop_chain()
        record = tracer.blocks["h"]
        buckets = attribute_block(tracer, record)
        assert buckets.pop("_reached_proposal", False)
        latency = record.t_commit - record.t_propose  # 0.6
        # committing span contributes only pre-dispatch queueing (0 here);
        # the flight contributes 0.2; the proposal span its full window 0.4.
        assert buckets["network"] == pytest.approx(0.2)
        assert buckets["crypto"] == pytest.approx(0.1)
        assert buckets["compute"] == pytest.approx(0.3)
        assert sum(buckets.values()) == pytest.approx(latency)
        assert buckets["unattributed"] == pytest.approx(0.0)

    def test_report_shares_and_coverage(self):
        tracer = self._one_hop_chain()
        report = critical_path_report(tracer)
        assert report.blocks == 1 and report.walked == 1
        assert report.coverage == pytest.approx(1.0)
        assert report.share("network") == pytest.approx(0.2 / 0.6)
        assert set(report.buckets_ms) == set(BUCKETS)

    def test_warmup_filter(self):
        tracer = self._one_hop_chain()
        report = critical_path_report(tracer, warmup_ms=100.0)
        assert report.blocks == 0 and report.mean_latency_ms == 0.0

    def test_broken_chain_is_unattributed_not_crash(self):
        tracer = SpanTracer(enabled=True)
        propose = tracer.open_work(node=0, now=0.0)
        tracer.block_proposed("h", view=0, proposer=0, txs=1, now=0.0)
        tracer.close_work(propose, cpu_start=0.0, finish=0.1)
        handler = tracer.open_work(node=1, now=5.0)  # no parent chain
        tracer.block_committed("h", node=1, now=5.0)
        tracer.close_work(handler, cpu_start=5.0, finish=5.1)
        record = tracer.blocks["h"]
        buckets = attribute_block(tracer, record)
        assert not buckets.pop("_reached_proposal", False)
        assert buckets["unattributed"] > 0


class TestPerfetto:
    def _traced(self):
        tracer = SpanTracer(enabled=True)
        sid = tracer.open_work(node=0, now=0.0)
        tracer.add_part("counter", "TPM", 20.0)
        tracer.block_proposed("deadbeef" * 8, view=0, proposer=0, txs=2, now=0.0)
        tracer.close_work(sid, cpu_start=0.0, finish=20.5)
        tracer.net_span(cause=sid, msg_id=1, src=0, dst=1,
                        name="Proposal", t0=20.5, t1=20.7)
        tracer.block_committed("deadbeef" * 8, node=1, now=20.7)
        tracer.begin_phase("recovery", node=1, now=1.0)
        tracer.end_phase("recovery", node=1, now=2.0)
        tracer.instant("view_change", node=0, now=3.0, view=1)
        return tracer

    def test_document_is_valid(self):
        document = to_perfetto(self._traced())
        assert validate_trace(document) == []
        assert document["otherData"]["generator"] == "repro.obs"

    def test_round_trip_through_file(self, tmp_path):
        from repro.obs.perfetto import write_perfetto

        path = tmp_path / "trace.json"
        write_perfetto(self._traced(), str(path))
        assert validate_trace(path) == []
        assert validate_trace(str(path)) == []

    def test_validator_flags_problems(self):
        assert validate_trace({"events": []})  # wrong top-level key
        bad = {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                                "ts": -5, "dur": "oops"}]}
        problems = validate_trace(bad)
        assert any("bad ts" in p for p in problems)
        assert any("bad dur" in p for p in problems)
        assert validate_trace({"traceEvents": [{"ph": "?"}]})

    def test_timestamps_are_microseconds(self):
        document = to_perfetto(self._traced())
        net = next(e for e in document["traceEvents"] if e.get("cat") == "net")
        assert net["ts"] == pytest.approx(20.5 * 1000)
        assert net["dur"] == pytest.approx(0.2 * 1000)


class TestLatencyStatsCache:
    def test_percentiles_match_fresh_sort(self):
        stats = LatencyStats()
        values = [float((7 * i) % 101) for i in range(1000)]
        for v in values:
            stats.add(v)
        assert stats.p50 == sorted(values)[499]
        # Interleave adds and reads: the cache must invalidate.
        before = stats.p99
        stats.add(10_000.0)
        assert stats.p99 != before or 10_000.0 <= before
        assert stats.percentile(100.0) == 10_000.0

    def test_reuses_sorted_view(self):
        stats = LatencyStats()
        for v in (3.0, 1.0, 2.0):
            stats.add(v)
        assert stats.percentile(50.0) == 2.0
        cached = stats._sorted
        stats.percentile(99.0)
        assert stats._sorted is cached


class TestTraceRecorderRing:
    def test_unbounded_by_default(self):
        recorder = TraceRecorder()
        for i in range(10):
            recorder.record(float(i), "tick")
        assert len(recorder.events) == 10
        assert recorder.count("tick") == 10


class TestMetricsCollectorPruning:
    def test_proposal_entries_pruned_after_first_commit(self):
        collector = MetricsCollector(warmup_ms=0.0)
        block = genesis_block()
        collector.on_propose(0, block, 1.0)
        assert block.hash in collector._proposed_at
        collector.on_commit(1, block, 3.0)
        assert block.hash not in collector._proposed_at
        assert block.hash not in collector._block_txs
        assert collector.commit_latency.samples == [2.0]

    def test_late_reproposal_of_committed_block_ignored(self):
        collector = MetricsCollector(warmup_ms=0.0)
        block = genesis_block()
        collector.on_propose(0, block, 1.0)
        collector.on_commit(1, block, 3.0)
        collector.on_propose(2, block, 9.0)  # view change re-proposal
        assert block.hash not in collector._proposed_at
        collector.on_commit(2, block, 9.5)  # duplicate commit: ignored
        assert collector.blocks_committed == 1
