"""Event and event-queue primitives.

Times are floats in **milliseconds** throughout the library: the paper
reports RTTs, counter latencies, and commit latencies in milliseconds, so
using the same unit everywhere keeps configs readable.

Determinism: the queue orders events by ``(time, sequence)`` where the
sequence number is assigned at insertion.  Two events scheduled for the same
instant therefore fire in insertion order on every run.

Architecture (the simulator hot path)
-------------------------------------
The queue is a **hierarchical timer wheel with a heap overflow**:

* A wheel of :data:`WHEEL_SLOTS` buckets, each :data:`GRANULARITY_MS`
  wide, covers the short horizon ``[base, base + 1024 ms)`` where
  nearly every event lands (message deliveries, CPU completions,
  retransmit/ACK timers, pacemaker timeouts).  Insertion into a future
  bucket is an O(1) unsorted append — no heap sift.
* When the drain cursor reaches a bucket, the bucket is heapified once
  into the **active heap**; pops come off the active heap so the global
  ``(time, seq)`` order is exact.  Insertions at or behind the cursor go
  straight into the active heap (heap order covers them), so a late
  insertion can never be misordered by bucket rounding: the bucket index
  is a monotonic function of time, and ties always share a bucket.
* Events past the wheel horizon go to an **overflow heap**.  When the
  wheel fully drains, the queue *rebases* — the wheel window jumps
  forward to the earliest overflow event and near-horizon overflow
  entries redistribute into buckets.  Overflow times are always beyond
  every wheel time, so the two structures never interleave.

Every entry is one shape, ``(time, seq, target, args)`` (``seq`` is
unique, so comparisons never reach the third element):

* ``args`` is a tuple — the handle-free fast path (:meth:`push_fast`) used
  for fire-and-forget schedules (message deliveries, dispatch
  completions): ``target(*args)`` runs at ``time``.  No :class:`Event`
  object, no closure, no lazy-deletion bookkeeping — the entry tuple is
  the event.
* ``args`` is ``None`` — the cancellable slow path (:meth:`push`):
  ``target`` is the :class:`Event` handle, skipped if cancelled.

The drain loop, :meth:`repro.sim.loop.Simulator._drain`, pops due entries
straight off ``_active`` (one ``heappop`` and the callback per event) and
enters :meth:`EventQueue._settle` only when that heap is empty.

Fired :class:`Event` objects can be recycled through a small free pool
(:meth:`release`); the ``Timer`` layer returns its events after every
fire, so steady-state timer traffic allocates nothing.  Only *fired*
events are poolable: a cancelled event still sits in a bucket (lazy
deletion), and reusing it would resurrect that stale entry.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

#: The timer wheel: this many buckets of this width (ms), a 1024 ms
#: horizon past which events wait in the overflow heap.
WHEEL_SLOTS = 2048
GRANULARITY_MS = 0.5


class Event:
    """A single scheduled callback (the cancellable slow path).

    Compared by ``(time, seq)`` only; the callback and its metadata are
    excluded from ordering.  Slotted and hand-rolled: the simulator may
    create one per cancellable schedule, and pooled reuse (see
    :meth:`EventQueue.release`) requires mutable fields.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "fired")

    def __init__(self, time: float, seq: int,
                 callback: Callable[[], None], label: str = "") -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time}, seq={self.seq}, {state}, label={self.label!r})"

    def cancel(self) -> None:
        """Mark the event so the loop skips it (O(1) lazy deletion).

        A no-op once the event has fired: cancelling a handle whose
        callback already ran must not perturb queue bookkeeping.
        """
        if not self.fired:
            self.cancelled = True


class EventQueue:
    """Deterministic timer-wheel event queue (see module docstring).

    Ordering contract is identical to the previous pure-heap
    implementation: strict ``(time, seq)`` order, ``seq`` assigned at
    insertion from one counter shared by both entry shapes.
    """

    #: Free-pool bound: enough to cover every live timer in an n=301 run
    #: without letting a cancellation storm hoard memory.
    _POOL_MAX = 4096

    def __init__(self) -> None:
        self._nslots = WHEEL_SLOTS
        self._gran = GRANULARITY_MS
        self._horizon = WHEEL_SLOTS * GRANULARITY_MS
        self._slots: list[list] = [[] for _ in range(WHEEL_SLOTS)]
        self._base = 0.0      # absolute time of slot 0 in this rotation
        self._cursor = 0      # bucket currently merged into the active heap
        self._active: list = []    # heap: entries due at/behind the cursor
        self._overflow: list = []  # heap: entries beyond the wheel horizon
        self._wheel_count = 0      # entries parked in future buckets
        self._seq = 0
        self._live = 0
        self._pool: list[Event] = []

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def push(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Insert a callback to fire at ``time``; returns a cancellable handle."""
        seq = self._seq  # the number push_fast is about to assign
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.label = label
            event.cancelled = False
            event.fired = False
        else:
            event = Event(time, seq, callback, label)
        self.push_fast(time, event, None)
        return event

    def push_fast(self, time: float, callback: Callable[..., None],
                  args: Optional[tuple] = ()) -> None:
        """Handle-free insert: no :class:`Event`, nothing to cancel.

        ``callback(*args)`` runs at ``time``.  Use for the fire-and-forget
        majority of schedules (message deliveries, dispatch completions);
        anything that may need cancelling must use :meth:`push` (which
        lands here with its handle and ``args=None``).
        """
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        entry = (time, seq, callback, args)
        idx = int((time - self._base) / self._gran)
        if idx <= self._cursor:
            # Due now / behind the cursor: heap order covers it exactly.
            heappush(self._active, entry)
        elif idx < self._nslots:
            self._slots[idx].append(entry)
            self._wheel_count += 1
        elif self._wheel_count or self._active or self._overflow:
            heappush(self._overflow, entry)
        else:
            # Whole queue empty: realign the wheel window on this event
            # instead of parking it in overflow (keeps isolated
            # far-future schedules, e.g. after a long idle gap, cheap).
            self._base = time
            self._cursor = 0
            heappush(self._active, entry)

    def release(self, event: Event) -> None:
        """Return a *fired* event handle to the free pool for reuse.

        Callers must guarantee no other reference to the handle survives.
        Cancelled-but-unfired events are rejected: they still sit in a
        bucket awaiting lazy deletion, and recycling one would resurrect
        that stale entry under a new identity.
        """
        if event.fired and len(self._pool) < self._POOL_MAX:
            self._pool.append(event)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def _settle(self) -> bool:
        """Advance cursor/rebase until the active heap's top is a live
        entry; False when the queue is exhausted."""
        active = self._active
        slots = self._slots
        while True:
            while active:
                top = active[0]
                if top[3] is None and top[2].cancelled:
                    heappop(active)
                    continue
                return True
            if self._wheel_count:
                c = self._cursor + 1
                n = self._nslots
                while c < n:
                    bucket = slots[c]
                    if bucket:
                        self._cursor = c
                        self._wheel_count -= len(bucket)
                        slots[c] = []
                        heapify(bucket)
                        self._active = active = bucket
                        break
                    c += 1
                else:
                    self._wheel_count = 0  # defensive: count drifted
                continue
            if self._overflow:
                self._rebase()
                continue
            self._live = 0
            return False

    def _rebase(self) -> None:
        """Jump the wheel window forward onto the earliest overflow event
        and redistribute the near-horizon overflow into buckets.

        Only called with the wheel and active heap empty, so every
        remaining entry lives in overflow and the new window is
        consistent for all of them.
        """
        overflow = self._overflow
        base = overflow[0][0]
        self._base = base
        self._cursor = 0
        limit = base + self._horizon
        gran = self._gran
        slots = self._slots
        active = self._active
        while overflow and overflow[0][0] < limit:
            entry = heappop(overflow)
            idx = int((entry[0] - base) / gran)
            if idx <= 0:
                heappush(active, entry)
            else:
                slots[idx].append(entry)
                self._wheel_count += 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``.

        For consumers that drain a queue by hand (the simulator's own loop
        never comes through here).  The event is marked ``fired`` so a
        later ``cancel`` of its handle cannot corrupt the live count; a
        fast-path entry comes back wrapped in a transient :class:`Event`.
        """
        if not self._settle():
            return None
        time, seq, target, args = heappop(self._active)
        self._live -= 1
        if args is None:
            event = target
        else:
            event = Event(time, seq,
                          target if not args else (lambda: target(*args)))
        event.fired = True
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the earliest non-cancelled event, or ``None`` if empty."""
        if not self._settle():
            return None
        return self._active[0][0]

    def note_cancelled(self) -> None:
        """Bookkeeping hook: an event handle obtained from :meth:`push` was
        cancelled externally.

        Callers must only invoke this for events that were actually live
        (not yet fired, not already cancelled) — :meth:`Simulator.cancel`
        guards on ``event.fired`` before calling.
        """
        self._live = max(0, self._live - 1)


__all__ = ["Event", "EventQueue", "Any"]
