"""Process and timer abstractions over the simulation loop.

A :class:`Process` is anything with an identity that lives in the
simulation — consensus replicas, clients, the rollback attacker.  It
provides restartable timers (used by pacemakers and retry loops) that are
automatically invalidated when the process crashes, so a rebooting node
never receives a timer that belongs to its previous incarnation.

Hot-path notes: a pacemaker re-arms its timer on every view and a reliable
channel on every send, so :meth:`Timer.start` builds no label (it is
precomputed once at construction), allocates no closure (the fire callback
is a bound method), and returns its fired event handles to the simulator's
free pool for reuse.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.events import Event
from repro.sim.loop import Simulator


class Timer:
    """A cancellable, restartable one-shot timer bound to a process epoch."""

    __slots__ = ("_process", "_label", "_callback", "_event", "_epoch")

    def __init__(self, process: "Process", name: str) -> None:
        self._process = process
        self._label = f"{process.name}.{name}"
        self._callback: Optional[Callable[[], None]] = None
        self._event: Optional[Event] = None
        self._epoch = -1

    @property
    def pending(self) -> bool:
        """True while the timer is armed and can still fire: not fired,
        not cancelled, not voided by its process crashing since."""
        return self._event is not None and not self._event.cancelled \
            and self._epoch == self._process.epoch

    @property
    def deadline(self) -> Optional[float]:
        """Absolute fire time while pending, else None."""
        return self._event.time if self.pending else None

    def start(self, delay: float, callback: Callable[[], None]) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` ms from now."""
        self.cancel()
        process = self._process
        self._epoch = process.epoch
        self._callback = callback
        self._event = process.sim.schedule(delay, self._fire, self._label)

    def _fire(self) -> None:
        event = self._event
        self._event = None
        process = self._process
        if event is not None:
            # The handle just fired and nothing else holds it: recycle.
            process.sim.release(event)
        # Ignore timers from a previous incarnation of the process.
        if self._epoch == process.epoch and process.alive:
            self._callback()

    def cancel(self) -> None:
        """Disarm the timer if pending."""
        if self._event is not None:
            self._process.sim.cancel(self._event)
            self._event = None


class Process:
    """Base class for simulated actors.

    ``epoch`` increments on every crash/reboot so stale callbacks (timers,
    in-flight CPU completions) from a previous life can be filtered out.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.alive = True
        self.epoch = 0

    def timer(self, name: str) -> Timer:
        """Create a named timer bound to this process."""
        return Timer(self, name)

    def after(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule a callback guarded by liveness and epoch."""
        epoch = self.epoch

        def guarded() -> None:
            if self.alive and self.epoch == epoch:
                callback()

        return self.sim.schedule(delay, guarded, label or self.name)

    def crash(self) -> None:
        """Mark the process dead; all pending guarded callbacks are voided."""
        self.alive = False
        self.epoch += 1

    def reboot(self) -> None:
        """Bring the process back in a fresh epoch."""
        self.alive = True
        self.epoch += 1


__all__ = ["Process", "Timer"]
