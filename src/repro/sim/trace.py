"""Structured trace recording.

Replicas, the pacemaker and the invariant monitors record notable moments
here (a crash, a reboot, a view timeout, a checkpoint or snapshot
install, an invariant violation).  Only tests read them back, through
``events`` and ``count``.  Table 1's message complexity is not computed
from the trace: ``harness/analysis.py`` reads ``messages_sent`` from the
network's stats.  A simulator builds its recorder disabled, so a run
keeps no event unless a reader turns it on (``sim.trace.enabled =
True``); the per-kind counters tick either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One trace record: a timestamped, kind-tagged observation."""

    time: float
    kind: str
    node: Optional[int]
    detail: dict[str, Any]


class TraceRecorder:
    """Appends :class:`TraceEvent` records to ``events`` and counts them
    per kind; filter ``events`` to select by kind or time."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        self._counters: dict[str, int] = {}

    def record(self, time: float, kind: str, node: Optional[int] = None, **detail: Any) -> None:
        """Record one event (no-op when disabled, but counters still tick)."""
        self._counters[kind] = self._counters.get(kind, 0) + 1
        if self.enabled:
            self.events.append(TraceEvent(time, kind, node, detail))

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were recorded (even while disabled)."""
        return self._counters.get(kind, 0)


__all__ = ["TraceEvent", "TraceRecorder"]
