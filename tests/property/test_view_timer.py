"""The view timer against its cancel-and-reschedule body.

:class:`CancelAndReschedule` is the body ``Pacemaker`` had while every
``view_started`` cancelled the queued timeout and scheduled a new one.
Random programs of ``view_started`` / ``progress`` / ``nudge`` / ``rearm``
/ ``stop`` / crash / reboot run on it and on the real
:class:`~repro.consensus.pacemaker.Pacemaker`, each in its own simulator,
with jitter on and off, backoff capped or not, decay on or off.  A
timeout may advance the view or re-arm the same one, as the protocols'
handlers do.  Both must fire at the same instants (compared with ``==``)
for the same views, agree after every operation on whether the timer is
armed and on its deadline, and end with the same ``timeouts_fired`` /
``backoff_nudges`` / ``backoff_decays`` / ``peak_backoff`` and the same
jitter-RNG state.
"""

from __future__ import annotations

from typing import Callable, Optional

from hypothesis import example, given, settings, strategies as st

from repro.consensus.config import ProtocolConfig
from repro.consensus.pacemaker import Pacemaker
from repro.sim.loop import Simulator
from repro.sim.process import Process, Timer


class CancelAndReschedule:
    """The oracle: one timer event per arming, cancelled by the next."""

    def __init__(self, process: Process, base_timeout_ms: float,
                 on_timeout: Callable[[int], None]) -> None:
        config = process.config
        self._process = process
        self.base_timeout_ms = base_timeout_ms
        self._on_timeout = on_timeout
        self._max_doublings = config.pacemaker_max_doublings
        self.decay = config.backoff_decay
        self._timer: Timer = process.timer("pacemaker")
        self._consecutive_timeouts = 0
        self.current_view = 0
        self.timeouts_fired = 0
        self.backoff_decays = 0
        self.peak_backoff = 0
        self.backoff_nudges = 0
        self.jitter = config.timeout_jitter
        self._rng = None

    @property
    def armed(self) -> bool:
        return self._timer.pending

    @property
    def deadline(self) -> Optional[float]:
        return self._timer._event.time if self._timer.pending else None

    def _armed_timeout_ms(self) -> float:
        doublings = min(self._consecutive_timeouts, self._max_doublings)
        timeout = self.base_timeout_ms * (2 ** doublings)
        if self.jitter <= 0.0:
            return timeout
        if self._rng is None:
            self._rng = self._process.sim.fork_rng(
                f"pacemaker/{self._process.name}")
        return timeout * (1.0 + self.jitter * self._rng.random())

    def view_started(self, view: int) -> None:
        self.current_view = view
        self._timer.start(self._armed_timeout_ms(), self._fire)

    def progress(self) -> None:
        if self._consecutive_timeouts <= 0:
            return
        if self.decay > 0:
            self.backoff_decays += 1
            self._consecutive_timeouts = max(
                0, self._consecutive_timeouts - self.decay)
        else:
            self._consecutive_timeouts = 0

    def nudge(self) -> None:
        if not self._timer.pending:
            return
        remaining = self._timer._event.time - self._process.sim.now
        if remaining <= self.base_timeout_ms:
            return
        delay = self.base_timeout_ms
        if self.jitter > 0.0:
            if self._rng is None:
                self._rng = self._process.sim.fork_rng(
                    f"pacemaker/{self._process.name}")
            delay *= 1.0 + self.jitter * self._rng.random()
        if delay >= remaining:
            return
        self.backoff_nudges += 1
        self._timer.start(delay, self._fire)

    def rearm(self) -> None:
        self._timer.start(self._armed_timeout_ms(), self._fire)

    def stop(self) -> None:
        self._timer.cancel()

    def _fire(self) -> None:
        self.timeouts_fired += 1
        self._consecutive_timeouts += 1
        if self._consecutive_timeouts > self.peak_backoff:
            self.peak_backoff = self._consecutive_timeouts
        self._on_timeout(self.current_view)


OPS = ("view_started", "progress", "nudge", "rearm", "stop", "crash",
       "crash_stop", "reboot", "crash_reboot")


class Twin:
    """One pacemaker in its own simulator, driven by a program."""

    def __init__(self, cls, params: dict, reactions: list[str],
                 seed: int) -> None:
        self.sim = Simulator(seed=seed)
        self.process = Process(self.sim, "node3")
        self.process.config = ProtocolConfig(
            n=1, f=0, pacemaker_max_doublings=params["max_backoff_doublings"],
            timeout_jitter=params["jitter"], backoff_decay=params["decay"])
        self.fires: list = []
        self.armed: list = []
        self._reactions = reactions
        self.pm = cls(self.process, params["base_timeout_ms"],
                      self._on_timeout)

    def _on_timeout(self, view: int) -> None:
        self.fires.append((self.sim.now, view))
        reaction = self._reactions[len(self.fires) % len(self._reactions)]
        if reaction == "advance":        # a new view, as _advance_view
            self.pm.view_started(view + 1)
        elif reaction == "rearm":        # TEEview aborted
            self.pm.rearm()
        # "idle": the handler did not re-arm (a recovering replica)

    def apply(self, op: str, view: int) -> None:
        pm, process = self.pm, self.process
        if op == "view_started":
            pm.view_started(view)
        elif op in ("progress", "nudge", "rearm", "stop"):
            getattr(pm, op)()
        elif op == "crash":
            process.crash()
        elif op == "crash_stop":          # AchillesNode.crash
            process.crash()
            pm.stop()
        elif op == "reboot":              # ReplicaBase.reboot
            process.reboot()
            pm.stop()
        elif op == "crash_reboot":        # a reboot that never re-arms
            process.crash()
            process.reboot()
        self.armed.append((self.sim.now, op, pm.armed, pm.deadline))

    def run(self, program, horizon: float) -> None:
        at = 0.0
        for gap, op, view in program:
            at += gap
            self.sim.schedule_at(
                at, lambda op=op, view=view: self.apply(op, view))
        self.sim.run(until=at + horizon)


#: Gaps from exact ties (0) through sub-timeout steps to several backoffs.
GAPS = st.one_of(st.just(0.0), st.sampled_from([0.5, 3.0, 9.75, 10.0]),
                 st.floats(0.0, 400.0, allow_nan=False))
PROGRAMS = st.lists(
    st.tuples(GAPS, st.sampled_from(OPS), st.integers(0, 40)),
    min_size=1, max_size=40)
PARAMS = st.fixed_dictionaries(dict(
    base_timeout_ms=st.sampled_from([10.0, 7.3, 50.0]),
    max_backoff_doublings=st.integers(0, 4),
    jitter=st.sampled_from([0.0, 0.0, 0.1, 0.5]),
    decay=st.integers(0, 2),
))
REACTIONS = st.lists(st.sampled_from(["advance", "rearm", "idle"]),
                     min_size=1, max_size=5)


@settings(max_examples=400, deadline=None)
@given(program=PROGRAMS, params=PARAMS, reactions=REACTIONS,
       seed=st.integers(0, 3), horizon=st.sampled_from([0.0, 30.0, 2000.0]))
# Armed on a dead process in its current epoch: an early fire waits out
# the deadline there too, so the timer stays armed until it.
@example(program=[(0.0, "crash", 0), (0.0, "view_started", 0),
                  (0.5, "view_started", 0), (9.75, "progress", 0)],
         params=dict(base_timeout_ms=10.0, max_backoff_doublings=0,
                     jitter=0.0, decay=0),
         reactions=["advance"], seed=0, horizon=0.0)
def test_the_view_timer_fires_as_cancel_and_reschedule_did(
        program, params, reactions, seed, horizon):
    oracle = Twin(CancelAndReschedule, params, reactions, seed)
    real = Twin(Pacemaker, params, reactions, seed)
    oracle.run(program, horizon)
    real.run(program, horizon)
    assert real.fires == oracle.fires
    assert real.armed == oracle.armed
    for name in ("timeouts_fired", "backoff_nudges", "backoff_decays",
                 "peak_backoff", "current_view", "_consecutive_timeouts"):
        assert getattr(real.pm, name) == getattr(oracle.pm, name), name
    assert (real.pm._rng is None) == (oracle.pm._rng is None)
    if oracle.pm._rng is not None:
        assert real.pm._rng.getstate() == oracle.pm._rng.getstate()


def test_a_storm_of_views_fires_once_at_the_last_deadline():
    """Views entered every 3 ms against a 10 ms timeout never time out;
    once they stop, the timer fires one timeout after the last."""
    oracle = Twin(CancelAndReschedule, dict(
        base_timeout_ms=10.0, max_backoff_doublings=3, jitter=0.0, decay=0),
        ["idle"], 1)
    real = Twin(Pacemaker, dict(
        base_timeout_ms=10.0, max_backoff_doublings=3, jitter=0.0, decay=0),
        ["idle"], 1)
    program = [(3.0, "view_started", v) for v in range(1, 40)]
    oracle.run(program, 100.0)
    real.run(program, 100.0)
    assert real.fires == oracle.fires == [(39 * 3.0 + 10.0, 39)]
