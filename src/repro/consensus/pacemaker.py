"""Pacemaker: view synchronization via exponentially growing timeouts.

Paper Sec. 4.1: the pacemaker's goals are (1) all correct nodes and a
unique leader share a view for long enough, and (2) the leader extends a
block all correct nodes will vote for.  Goal (1) uses the standard
increase-timeout-until-progress rule [PBFT, Tendermint]; goal (2) is the
protocol's job (NEW-VIEW collection).

:class:`Pacemaker` owns the view timer for a replica: the protocol calls
:meth:`view_started` when it enters a view and :meth:`progress` whenever a
block commits; if the timer fires first, the protocol's ``on_timeout``
callback runs (which in Achilles calls ``TEEview`` and ships a NEW-VIEW
certificate to the next leader).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.events import Event
from repro.sim.process import Process


class Pacemaker:
    """Per-replica view timer with exponential backoff.

    The timer is a *deadline*: :meth:`view_started` moves it, and the
    queued timeout event stays where it is while it is at or before the
    new deadline.  An event that fires before the deadline re-queues
    itself at the deadline through ``schedule_at``, so the timeout fires at
    exactly the instant a cancel-and-reschedule on every view would have
    (``tests/property/test_view_timer.py``) for one event per timeout
    period instead of two queue operations per view.  Only a deadline
    that gets earlier than the queued event cancels it.  A re-queued
    timeout takes a later queue sequence number than a rescheduled one
    would have, which orders it differently only against another event
    due at the very same instant.
    """

    def __init__(
        self,
        process: Process,
        base_timeout_ms: float,
        on_timeout: Callable[[int], None],
        max_backoff_doublings: Optional[int] = None,
        jitter: Optional[float] = None,
        decay: Optional[int] = None,
    ) -> None:
        self._process = process
        self._sim = process.sim
        self._label = f"{process.name}.pacemaker"
        self.base_timeout_ms = base_timeout_ms
        self._on_timeout = on_timeout
        config = getattr(process, "config", None)
        # Backoff cap and decay-on-progress default to the replica
        # config (same lazy idiom as jitter below) so deployments tune
        # them without touching the four protocol constructors.
        if max_backoff_doublings is None:
            max_backoff_doublings = getattr(config, "pacemaker_max_doublings", 10)
        self._max_doublings = max_backoff_doublings
        if decay is None:
            decay = getattr(config, "backoff_decay", 0)
        self.decay = decay
        # The queued timeout (None once it fired or was stopped; never
        # later than the deadline), the epoch it was queued in, and the
        # logical deadline.
        self._event: Optional[Event] = None
        self._epoch = -1
        self._deadline = 0.0
        self._consecutive_timeouts = 0
        self.current_view = 0
        self.timeouts_fired = 0
        #: Storm-damping engagement: progress() calls that released
        #: backoff gradually (decay mode, nonzero level) instead of
        #: hard-resetting.  The soak anti-vacuity gate reads this.
        self.backoff_decays = 0
        #: High-water mark of consecutive timeouts (storm depth).
        self.peak_backoff = 0
        #: Recovery-assist engagement: armed timers shortened by
        #: :meth:`nudge` (liveness evidence arrived mid-backoff).
        self.backoff_nudges = 0
        # Deterministic per-replica jitter on armed timeouts: replicas that
        # lose the same message must not all time out at the same instant
        # (synchronized view-change storms re-collide forever under loss).
        # Defaults to the replica config's ``timeout_jitter``; the RNG
        # stream is forked lazily so jitter=0 draws nothing and perturbs
        # no other stream.
        if jitter is None:
            jitter = getattr(config, "timeout_jitter", 0.0)
        self.jitter = jitter
        self._rng = None

    @property
    def armed(self) -> bool:
        """True while the view timer is pending (the replica can time out):
        armed in this incarnation of the process, not fired, not stopped."""
        return self._event is not None \
            and self._epoch == self._process.epoch

    @property
    def deadline(self) -> Optional[float]:
        """When the view times out (absolute ms) while :attr:`armed`, else
        None."""
        return self._deadline if self.armed else None

    @property
    def current_timeout_ms(self) -> float:
        """The timeout applied to the current view."""
        doublings = self._consecutive_timeouts
        if doublings > self._max_doublings:
            doublings = self._max_doublings
        return self.base_timeout_ms * (2 ** doublings)

    def _jittered(self, timeout: float) -> float:
        """``timeout`` scaled by ``1 + jitter * U(0, 1)`` from this
        replica's stream (``current_timeout_ms`` stays jitter-free so
        backoff behaviour remains exactly inspectable)."""
        if self._rng is None:
            self._rng = self._sim.fork_rng(f"pacemaker/{self._process.name}")
        return timeout * (1.0 + self.jitter * self._rng.random())

    def view_started(self, view: int) -> None:
        """(Re)arm the timer for ``view``: the deadline becomes one
        (backed-off, jittered) timeout from now."""
        self.current_view = view
        timeout = self.current_timeout_ms
        if self.jitter > 0.0:
            timeout = self._jittered(timeout)
        sim = self._sim
        deadline = self._deadline = sim.now + timeout
        event = self._event
        if event is not None and event.time <= deadline \
                and self._epoch == self._process.epoch:
            return  # the queued timeout re-queues itself at the deadline
        self._queue(deadline)

    def progress(self) -> None:
        """A block committed: release backoff (the view advanced healthily).

        With ``decay`` 0 (default) the backoff hard-resets — the
        historical behavior.  With ``decay`` > 0 it steps down by that
        many doublings per progress event instead: sustained progress
        still converges to the base timeout, but one lucky commit in the
        middle of a storm no longer re-arms minimum-length timeouts
        across a committee that is still resynchronizing.
        """
        if self._consecutive_timeouts <= 0:
            return
        if self.decay > 0:
            self.backoff_decays += 1
            self._consecutive_timeouts = max(
                0, self._consecutive_timeouts - self.decay)
        else:
            self._consecutive_timeouts = 0

    def nudge(self) -> None:
        """Cap the armed timer's *remaining* delay at the base timeout.

        Called on external liveness evidence (a rebooted replica asking
        for recovery help): a timer armed at peak backoff during a fault
        window otherwise pins the whole committee — views only advance on
        timeout, recovery only completes once a view lands on a RUNNING
        leader, so a multi-second armed timer becomes a multi-second
        post-release stall (the soak harness flags it as a degradation
        cycle).  Shorten-only: a nudge never pushes a deadline later, so
        evidence arriving faster than the base timeout (recovery retries
        every few ms) cannot livelock the timer into never firing.
        Timeouts are always safe — this affects liveness only.
        """
        if not self.armed:
            return
        now = self._sim.now
        remaining = self._deadline - now
        if remaining <= self.base_timeout_ms:
            return
        delay = self.base_timeout_ms
        if self.jitter > 0.0:
            delay = self._jittered(delay)
        if delay >= remaining:
            return
        self.backoff_nudges += 1
        self._deadline = now + delay
        self._queue(self._deadline)

    def rearm(self) -> None:
        """Re-arm the timer for the current view at the current backoff.

        Used when a timeout fired but the view could not be advanced (e.g.
        the checker's TEEview aborted mid-recovery): without re-arming, the
        replica would never time out again and could stall until an
        external message arrives.
        """
        self.view_started(self.current_view)

    def stop(self) -> None:
        """Disarm (used on crash)."""
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _queue(self, deadline: float) -> None:
        """Replace the queued timeout with one at ``deadline``."""
        sim = self._sim
        if self._event is not None:
            sim.cancel(self._event)
        self._epoch = self._process.epoch
        self._event = sim.schedule_at(deadline, self._fire, self._label)

    def _fire(self) -> None:
        sim = self._sim
        event = self._event
        self._event = None
        if event is not None:
            # The handle just fired and nothing else holds it: recycle.
            sim.release(event)
        process = self._process
        # Ignore a timeout queued by a previous incarnation of the process.
        if self._epoch != process.epoch:
            return
        if sim.now < self._deadline:
            # Views started since this was queued: wait out the deadline
            # (armed until then even on a dead process, as a timer is).
            self._event = sim.schedule_at(self._deadline, self._fire,
                                          self._label)
            return
        if not process.alive:
            return
        self.timeouts_fired += 1
        self._consecutive_timeouts += 1
        if self._consecutive_timeouts > self.peak_backoff:
            self.peak_backoff = self._consecutive_timeouts
        view = self.current_view
        sim.trace.record(sim.now, "view_timeout", None, view=view)
        self._on_timeout(view)


__all__ = ["Pacemaker"]
