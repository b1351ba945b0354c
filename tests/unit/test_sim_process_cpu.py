"""Unit tests for processes, timers, the CPU model, and the trace."""

from __future__ import annotations

import pytest

from repro.sim.cpu import CpuModel
from repro.sim.loop import Simulator
from repro.sim.process import Process
from repro.sim.trace import TraceRecorder


class TestCpuModel:
    def test_serializes_work(self):
        cpu = CpuModel()
        assert cpu.account(now=0.0, cost=2.0) == 2.0
        assert cpu.account(now=0.0, cost=3.0) == 5.0  # queued behind first

    def test_idle_gap_is_not_charged(self):
        cpu = CpuModel()
        cpu.account(now=0.0, cost=1.0)
        assert cpu.account(now=10.0, cost=1.0) == 11.0

    def test_zero_cost_respects_queue(self):
        cpu = CpuModel()
        cpu.account(now=0.0, cost=5.0)
        assert cpu.account(now=0.0, cost=0.0) == 5.0

    def test_negative_cost_rejected(self):
        cpu = CpuModel()
        with pytest.raises(ValueError):
            cpu.account(now=0.0, cost=-1.0)

    def test_utilization(self):
        cpu = CpuModel()
        cpu.account(now=0.0, cost=5.0)
        assert cpu.utilization(elapsed=10.0) == 0.5
        assert cpu.utilization(elapsed=0.0) == 0.0
        assert cpu.utilization(elapsed=2.0) == 1.0  # clamped

    def test_reset(self):
        cpu = CpuModel()
        cpu.account(now=0.0, cost=5.0)
        cpu.reset()
        assert cpu.idle_at(0.0)
        assert cpu.total_busy == 0.0


class TestProcessAndTimers:
    def test_timer_fires(self):
        sim = Simulator()
        p = Process(sim, "p")
        fired = []
        p.timer("t").start(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_timer_restart_replaces_pending(self):
        sim = Simulator()
        p = Process(sim, "p")
        fired = []
        t = p.timer("t")
        t.start(5.0, lambda: fired.append("first"))
        t.start(2.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["second"]

    def test_timer_cancel(self):
        sim = Simulator()
        p = Process(sim, "p")
        fired = []
        t = p.timer("t")
        t.start(1.0, lambda: fired.append(1))
        t.cancel()
        sim.run()
        assert fired == []
        assert not t.pending

    def test_crash_voids_timers(self):
        sim = Simulator()
        p = Process(sim, "p")
        fired = []
        p.timer("t").start(5.0, lambda: fired.append(1))
        sim.schedule(1.0, p.crash)
        sim.run()
        assert fired == []

    def test_timer_from_previous_epoch_ignored_after_reboot(self):
        sim = Simulator()
        p = Process(sim, "p")
        fired = []
        p.timer("t").start(5.0, lambda: fired.append("stale"))
        sim.schedule(1.0, p.crash)
        sim.schedule(2.0, p.reboot)
        sim.run()
        assert fired == []  # epoch changed; the old timer must not fire

    def test_a_voided_timer_has_no_deadline(self):
        """A crash voids a pending timer: it reports neither pending nor a
        deadline, also once the process is back in a new epoch."""
        sim = Simulator()
        p = Process(sim, "p")
        t = p.timer("t")
        t.start(10.0, lambda: None)
        assert t.pending and t.deadline == 10.0
        p.crash()
        assert not t.pending and t.deadline is None
        p.reboot()
        assert not t.pending and t.deadline is None
        t.start(3.0, lambda: None)
        assert t.pending and t.deadline == 3.0

    def test_after_guarded_by_liveness(self):
        sim = Simulator()
        p = Process(sim, "p")
        fired = []
        p.after(5.0, lambda: fired.append(1))
        sim.schedule(1.0, p.crash)
        sim.run()
        assert fired == []

    def test_after_runs_when_alive(self):
        sim = Simulator()
        p = Process(sim, "p")
        fired = []
        p.after(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]


class TestTraceRecorder:
    def test_records_and_filters(self):
        tr = TraceRecorder()
        tr.record(1.0, "commit", node=0, height=1)
        tr.record(2.0, "commit", node=1, height=1)
        tr.record(3.0, "propose", node=0)
        assert tr.count("commit") == 2
        assert [e.time for e in tr.events if e.kind == "propose"] == [3.0]
        assert {e.node for e in tr.events if e.kind == "commit"} == {0, 1}
        assert tr.events[0].detail == {"height": 1}

    def test_between(self):
        tr = TraceRecorder()
        for t in (1.0, 2.0, 3.0):
            tr.record(t, "x")
        assert [e.time for e in tr.events if 1.5 <= e.time < 3.0] == [2.0]

    def test_disabled_still_counts(self):
        tr = TraceRecorder(enabled=False)
        tr.record(1.0, "commit")
        assert tr.count("commit") == 1
        assert list(tr.events) == []
