"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue
from repro.sim.loop import Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        q.push(3.0, lambda: fired.append("c"))
        while (e := q.pop()) is not None:
            e.callback()
        assert fired == ["a", "b", "c"]

    def test_same_time_preserves_insertion_order(self):
        q = EventQueue()
        fired = []
        for tag in range(10):
            q.push(5.0, lambda t=tag: fired.append(t))
        while (e := q.pop()) is not None:
            e.callback()
        assert fired == list(range(10))

    def test_len_counts_live_events(self):
        q = EventQueue()
        events = [q.push(float(i), lambda: None) for i in range(4)]
        assert len(q) == 4
        events[1].cancel()
        q.note_cancelled()
        assert len(q) == 3

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        fired = []
        keep = q.push(1.0, lambda: fired.append("keep"))
        drop = q.push(0.5, lambda: fired.append("drop"))
        drop.cancel()
        q.note_cancelled()
        while (e := q.pop()) is not None:
            e.callback()
        assert fired == ["keep"]
        assert keep.time == 1.0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        first.cancel()
        q.note_cancelled()
        assert q.peek_time() == 2.0

    def test_pop_marks_event_fired(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        assert not handle.fired
        assert q.pop() is handle
        assert handle.fired

    def test_cancel_after_fire_is_noop(self):
        # Regression: cancelling a handle whose callback already ran used
        # to mark it cancelled and (via note_cancelled) decrement the live
        # count for an event no longer in the heap, skewing len(queue).
        q = EventQueue()
        fired_handle = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.pop()
        fired_handle.cancel()
        assert not fired_handle.cancelled
        assert len(q) == 1

    def test_live_count_survives_cancel_of_fired_event(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        sim.step()  # fires `handle`
        assert len(sim.queue) == 2
        sim.cancel(handle)  # must be a no-op: event already fired
        assert len(sim.queue) == 2
        sim.cancel(handle)  # idempotent
        assert len(sim.queue) == 2
        while sim.step():
            pass
        assert len(sim.queue) == 0

    def test_double_cancel_decrements_live_once(self):
        sim = Simulator()
        victim = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(victim)
        assert len(sim.queue) == 1
        sim.cancel(victim)  # second cancel of a pending event: no-op
        assert len(sim.queue) == 1

    def test_empty_queue(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None
        assert not q


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 5.0]
        assert sim.now == 5.0

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0  # clock advanced exactly to the boundary
        sim.run()
        assert fired == [1, 10]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancel_stops_event(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert len(sim.queue) == 0

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append("nested")))
        sim.run()
        assert fired == ["nested"]
        assert sim.now == 2.0

    def test_stop_halts_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_max_events_bound(self):
        sim = Simulator()
        count = [0]

        def recur():
            count[0] += 1
            sim.schedule(1.0, recur)

        sim.schedule(0.0, recur)
        sim.run(max_events=10)
        assert count[0] == 10

    def test_count_cut_timed_run_leaves_the_clock_at_its_last_event(self):
        # Regression: run(until=5, max_events=1) used to jump the clock to
        # 5.0 with the event due at 2.0 still pending, and the next step
        # then failed with "event from the past".
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.run(until=5.0, max_events=1)
        assert fired == [1.0] and sim.now == 1.0
        sim.run(until=5.0, max_events=5)    # the count no longer binds
        assert fired == [1.0, 2.0] and sim.now == 5.0

    @pytest.mark.parametrize("drive", [Simulator.step, Simulator.run],
                             ids=["step", "run"])
    def test_an_event_behind_the_clock_is_refused(self, drive):
        # One guard in the one drain loop, whichever way it is entered.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.now = 2.0                        # tampering: nothing legal does this
        with pytest.raises(SimulationError, match="from the past"):
            drive(sim)

    def test_determinism_across_runs(self):
        def run_once(seed: int) -> list[float]:
            sim = Simulator(seed=seed)
            rng = sim.fork_rng("jitter")
            samples = []

            def emit():
                samples.append(round(rng.uniform(0, 1), 9))
                if len(samples) < 20:
                    sim.schedule(rng.uniform(0, 2), emit)

            sim.schedule(0.0, emit)
            sim.run()
            return samples

        assert run_once(7) == run_once(7)
        assert run_once(7) != run_once(8)

    def test_fork_rng_streams_are_independent(self):
        sim = Simulator(seed=1)
        a1 = sim.fork_rng("a").random()
        # drawing from another stream must not perturb "a"
        sim.fork_rng("b").random()
        a2 = sim.fork_rng("a").random()
        assert a1 == a2

    def test_schedule_zero_runs_at_current_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0,
                     lambda: sim.schedule(0.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [3.0]


class TestTimerWheel:
    """Behavior specific to the wheel-backed queue: overflow, rebasing,
    the handle-free fast path, and event pooling."""

    def test_far_future_events_use_overflow_and_stay_ordered(self):
        # Horizon is WHEEL_SLOTS * GRANULARITY_MS (1024 ms); these
        # spread across wheel and overflow.
        q = EventQueue()
        fired = []
        for t in (5000.0, 0.25, 1500.0, 900.0, 1024.5, 2.0):
            q.push(t, lambda t=t: fired.append(t))
        while (e := q.pop()) is not None:
            e.callback()
        assert fired == sorted(fired)
        assert len(fired) == 6

    def test_rebase_after_wheel_drains(self):
        # Once the wheel empties, the base jumps to the earliest overflow
        # time and near-horizon entries redistribute; pushes after the
        # rebase must still interleave correctly.
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append(1.0))
        q.push(3000.0, lambda: fired.append(3000.0))
        q.push(3500.0, lambda: fired.append(3500.0))
        e = q.pop()
        e.callback()
        q.push(3200.0, lambda: fired.append(3200.0))
        while (e := q.pop()) is not None:
            e.callback()
        assert fired == [1.0, 3000.0, 3200.0, 3500.0]

    def test_fast_and_slow_paths_share_one_ordering(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("slow@2"))
        sim.schedule_fast(2.0, fired.append, "fast@2")
        sim.schedule_fast(1.0, fired.append, "fast@1")
        sim.schedule(1.0, lambda: fired.append("slow@1"))
        sim.run()
        # Same time ⇒ scheduling order (the shared seq counter), across
        # both entry shapes.
        assert fired == ["fast@1", "slow@1", "slow@2", "fast@2"]

    def test_schedule_fast_args_ride_along(self):
        sim = Simulator()
        seen = []
        sim.schedule_fast(1.0, lambda a, b: seen.append((a, b)), "x", 7)
        sim.run()
        assert seen == [("x", 7)]

    def test_schedule_fast_rejects_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_fast(-1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at_fast(1.0, lambda: None)

    def test_fired_event_is_recycled_from_pool(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        assert q.pop() is first
        q.release(first)
        second = q.push(2.0, lambda: None)
        assert second is first  # recycled object
        assert not second.fired and not second.cancelled
        assert second.time == 2.0

    def test_cancelled_event_is_never_pooled(self):
        # A cancelled event may still sit in a wheel bucket (lazy
        # deletion); recycling it would resurrect the stale entry.
        q = EventQueue()
        victim = q.push(1.0, lambda: None)
        victim.cancel()
        q.note_cancelled()
        q.release(victim)
        fresh = q.push(2.0, lambda: None)
        assert fresh is not victim

    def test_chain_across_many_horizons(self):
        # Each event schedules the next one 700 ms out — the cursor wraps
        # the wheel and rebases repeatedly.
        sim = Simulator()
        times = []

        def hop():
            times.append(sim.now)
            if len(times) < 10:
                sim.schedule_fast(700.0, hop)

        sim.schedule_fast(0.0, hop)
        sim.run()
        assert times == [i * 700.0 for i in range(10)]
        assert sim.now == 6300.0
