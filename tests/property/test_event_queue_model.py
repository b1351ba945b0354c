"""The event core against a sorted-list oracle.

Random programs of ``schedule`` / ``schedule_fast`` / ``schedule_at`` /
``schedule_at_fast`` / ``cancel`` / ``release`` / ``run(until=...)`` /
``run(max_events=...)`` / ``step`` / ``stop`` / ``peek_time`` run on a real
:class:`~repro.sim.loop.Simulator` and on :class:`Oracle`, a list kept
sorted by ``(time, seq)``.  Delays cover every branch of the timer wheel:
at the drain cursor, inside the wheel, past its horizon (overflow, then a
rebase) and exact ties.  Fired callbacks may schedule, cancel or stop, so
inserts also land while a bucket is being drained.

After every top-level operation both sides must agree on what fired, in
which order and at what instant, on ``now``, ``len(queue)``,
``events_processed`` and every live handle's ``fired`` / ``cancelled``.
The oracle knows nothing of wheels, cursors or entry shapes: it is the
specification a rewrite of the drain loop has to keep.
"""

from __future__ import annotations

from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.loop import Simulator

#: One wheel rotation at the default geometry (2048 slots x 0.5 ms).
HORIZON_MS = 1024.0

KINDS = ("schedule", "schedule_fast", "schedule_at", "schedule_at_fast")


class _Entry:
    """One scheduled callback as the oracle sees it."""

    def __init__(self, time, seq, ident, action, handle):
        self.time, self.seq, self.ident = time, seq, ident
        self.action = action
        self.handle = handle        # schedule()/schedule_at(): cancellable
        self.fired = self.cancelled = False

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class Oracle:
    """The specification: a sorted list and a clock."""

    def __init__(self):
        self.now = 0.0
        self.pending: list = []
        self.handles: list = []     # cancellable entries; None once released
        self.processed = 0
        self.log: list = []
        self._seq = self._ident = 0
        self._stopped = False

    # -- the operations --------------------------------------------------
    def schedule(self, kind, delay, action):
        entry = _Entry(self.now + delay, self._seq, self._ident, action,
                       handle=kind in ("schedule", "schedule_at"))
        self._seq += 1
        self._ident += 1
        insort(self.pending, entry)
        if entry.handle:
            self.handles.append(entry)

    def cancel(self, index):
        entry = self._handle(index)
        if entry is not None and not entry.fired:
            entry.cancelled = True

    def release(self, index):
        entry = self._handle(index)
        if entry is not None and entry.fired:
            self.handles[index % len(self.handles)] = None

    def stop(self):
        self._stopped = True

    def peek_time(self):
        head = self._head()
        self.log.append(("peek", None if head is None else head.time))

    def step(self):
        head = self._head()
        if head is not None:
            self._fire(head)
        self.log.append(("step", head is not None))

    def run(self, until=None, max_events=None):
        if until is not None:
            until += self.now
        self._stopped = False
        fired = 0
        while not self._stopped and fired != max_events:
            head = self._head()
            if head is None or (until is not None and head.time > until):
                break
            self._fire(head)
            fired += 1
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    # -- what both sides are compared on ---------------------------------
    def observe(self):
        return (self.log, self.now,
                sum(1 for e in self.pending if not e.cancelled),
                self.processed,
                [None if e is None else (e.fired, e.cancelled)
                 for e in self.handles])

    # --------------------------------------------------------------------
    def _handle(self, index):
        return self.handles[index % len(self.handles)] if self.handles else None

    def _head(self):
        return next((e for e in self.pending if not e.cancelled), None)

    def _fire(self, entry):
        self.pending.remove(entry)
        self.now = entry.time
        self.processed += 1
        entry.fired = True
        self.log.append((entry.ident, self.now))
        _perform(self, entry.action)


class Real:
    """The same operations on the simulator under test."""

    def __init__(self):
        self.sim = Simulator()
        self.handles: list = []
        self.log: list = []
        self._ident = 0

    def schedule(self, kind, delay, action):
        ident = self._ident
        self._ident += 1
        sim = self.sim
        if kind == "schedule":
            self.handles.append(
                sim.schedule(delay, lambda: self._fired(ident, action)))
        elif kind == "schedule_at":
            self.handles.append(sim.schedule_at(
                sim.now + delay, lambda: self._fired(ident, action)))
        elif kind == "schedule_fast":
            sim.schedule_fast(delay, self._fired, ident, action)
        else:
            sim.schedule_at_fast(sim.now + delay, self._fired, ident, action)

    def _fired(self, ident, action):
        self.log.append((ident, self.sim.now))
        _perform(self, action)

    def cancel(self, index):
        if self.handles:
            handle = self.handles[index % len(self.handles)]
            if handle is not None:
                self.sim.cancel(handle)

    def release(self, index):
        if self.handles:
            index %= len(self.handles)
            handle = self.handles[index]
            if handle is not None:
                fired = handle.fired
                self.sim.release(handle)
                if fired:
                    # The pool may hand the object out again: drop it, as
                    # release()'s contract asks of every caller.
                    self.handles[index] = None

    def stop(self):
        self.sim.stop()

    def peek_time(self):
        self.log.append(("peek", self.sim.queue.peek_time()))

    def step(self):
        self.log.append(("step", self.sim.step()))

    def run(self, until=None, max_events=None):
        if until is not None:
            until += self.sim.now
        self.sim.run(until=until, max_events=max_events)

    def observe(self):
        return (self.log, self.sim.now, len(self.sim.queue),
                self.sim.events_processed,
                [None if h is None else (h.fired, h.cancelled)
                 for h in self.handles])


def _perform(side, action):
    """What a fired callback does, on either side."""
    if action is None:
        return
    if action[0] == "spawn":
        side.schedule(*action[1:])
    elif action[0] == "cancel":
        side.cancel(action[1])
    else:
        side.stop()


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
delays = st.one_of(
    # Exact ties, the cursor bucket's edges, and both sides of the horizon.
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 7.5, HORIZON_MS - 0.5,
                     HORIZON_MS, 1.5 * HORIZON_MS, 3 * HORIZON_MS]),
    st.floats(0.0, 0.6, allow_nan=False),
    st.floats(0.0, HORIZON_MS, allow_nan=False),
    st.floats(HORIZON_MS, 5 * HORIZON_MS, allow_nan=False),
)
indices = st.integers(0, 40)
kinds = st.sampled_from(KINDS)
leaf_actions = st.one_of(
    st.none(), st.none(),
    st.just(("stop",)),
    st.tuples(st.just("cancel"), indices),
    st.tuples(st.just("spawn"), kinds, delays, st.none()),
)
actions = st.one_of(
    leaf_actions,
    st.tuples(st.just("spawn"), kinds, delays, leaf_actions),
)
operations = st.one_of(
    st.tuples(st.just("schedule"), kinds, delays, actions),
    st.tuples(st.just("schedule"), kinds, delays, actions),
    st.tuples(st.just("cancel"), indices),
    st.tuples(st.just("release"), indices),
    # A run is bounded by an instant or by a count, not both: what the
    # clock reads when the count cuts a timed run short is pinned on its
    # own in tests/unit/test_sim_kernel.py.
    st.tuples(st.just("run"), st.none() | delays, st.none()),
    st.tuples(st.just("run"), st.none(), st.integers(0, 6)),
    st.tuples(st.just("step")),
    st.tuples(st.just("stop")),
    st.tuples(st.just("peek_time")),
)


@given(st.lists(operations, min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_simulator_matches_the_sorted_list_oracle(program):
    real, oracle = Real(), Oracle()
    for step, (name, *args) in enumerate(program):
        getattr(real, name)(*args)
        getattr(oracle, name)(*args)
        assert real.observe() == oracle.observe(), (step, name, args)
    while real.sim.queue:       # a fired ("stop",) ends one run early
        real.run()
        oracle.run()
        assert real.observe() == oracle.observe()


@given(st.lists(st.tuples(kinds, delays), min_size=1, max_size=200),
       st.integers(1, 7))
@settings(max_examples=100, deadline=None)
def test_bounded_runs_fire_everything_once_in_order(schedule, chunk):
    """``run(max_events=k)`` in a loop, ``step`` in a loop and one ``run``
    fire the same events at the same instants."""
    def drive(how):
        real = Real()
        for kind, delay in schedule:
            real.schedule(kind, delay, None)
        how(real)
        assert len(real.sim.queue) == 0
        assert real.sim.events_processed == len(schedule)
        return [e for e in real.log if e[0] != "step"], real.sim.now

    def chunks(real):
        while real.sim.queue:
            real.run(max_events=chunk)

    def steps(real):
        while real.sim.step():
            pass

    whole = drive(lambda real: real.run())
    assert drive(chunks) == whole
    assert drive(steps) == whole
    assert [t for _ident, t in whole[0]] == sorted(t for _i, t in whole[0])


@pytest.mark.parametrize("kind", KINDS)
def test_scheduling_into_the_past_is_refused(kind):
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    method = getattr(sim, kind)
    when = sim.now - 1.0 if "_at" in kind else -1.0
    with pytest.raises(SimulationError):
        method(when, lambda: None)
    assert len(sim.queue) == 0
