"""The simulation loop.

:class:`Simulator` owns the clock, the event queue, and a seeded RNG.  All
randomness in a run (network jitter, client arrivals, election timeouts)
must come from :attr:`Simulator.rng` or a generator forked from it via
:meth:`fork_rng`, so a run is a pure function of ``(configuration, seed)``.
The hottest streams are read in blocks, each value what the stdlib would
draw: floats (:func:`normal_block`, :func:`exponential_block`) or the raw
32-bit words (:func:`word_block`) that the workload generators decode in
line into the stdlib's ``random``, ``randrange``, ``choice``, ``sample``,
``expovariate`` and ``lognormvariate`` draws.

Two scheduling paths share one ``(time, seq)`` order:

* :meth:`schedule` / :meth:`schedule_at` — returns a cancellable
  :class:`~repro.sim.events.Event` handle (timers, anything revocable);
* :meth:`schedule_fast` / :meth:`schedule_at_fast` — handle-free
  fire-and-forget scheduling for the hot majority (message deliveries,
  dispatch completions).  No handle, no Event allocation, no closure:
  callback arguments ride in the queue entry itself.

:meth:`run` and :meth:`step` share one drain loop (:meth:`_drain`: a due
event costs one ``heappop`` and its callback); :meth:`step` is for callers
that interleave simulation with checks (the cluster harness, campaigns).
"""

from __future__ import annotations

import random
import struct
from heapq import heappop
from itertools import repeat, starmap
from math import cos, inf, log, pi, sin, sqrt
from operator import mul, neg, sub
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.obs.spans import SpanTracer
from repro.sim.events import Event, EventQueue
from repro.sim.trace import TraceRecorder


class Simulator:
    """Deterministic discrete-event simulator with millisecond time."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.queue = EventQueue()
        self.now: float = 0.0
        # Off: the per-kind counters tick, but no event is kept unless a
        # reader turns it on (``sim.trace.enabled = True``).
        self.trace = TraceRecorder(enabled=False)
        # Causal span tracer (repro.obs); disabled by default — every
        # emission site guards on `obs.enabled`, so this costs nothing
        # on untraced runs.
        self.obs = SpanTracer(self)
        self._running = False
        self._stopped = False
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.queue.push(self.now + delay, callback, label)

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run at absolute time ``time`` ms."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        return self.queue.push(time, callback, label)

    def schedule_fast(self, delay: float, callback: Callable[..., None],
                      *args) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no Event object.

        ``callback(*args)`` runs ``delay`` ms from now.  Use only for
        schedules that are never cancelled — there is nothing to cancel.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.queue.push_fast(self.now + delay, callback, args)

    def schedule_at_fast(self, time: float, callback: Callable[..., None],
                         *args) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`schedule_fast`)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        self.queue.push_fast(time, callback, args)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event; a no-op on already-fired events.

        Guarding on ``fired`` keeps the queue's live count exact: before
        this check, cancelling a handle whose callback had already run
        decremented the count for an event no longer in the heap, skewing
        ``len(queue)`` for the rest of the run.
        """
        if not event.cancelled and not event.fired:
            event.cancel()
            self.queue.note_cancelled()

    def release(self, event: Event) -> None:
        """Recycle a fired event handle (see :meth:`EventQueue.release`).

        Only for holders that know no other reference survives — the
        :class:`~repro.sim.process.Timer` layer after a fire, primarily.
        """
        self.queue.release(event)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _drain(self, until: float, limit: int) -> int:
        """Fire due events in ``(time, seq)`` order until none is left at
        or before ``until``, ``limit`` of them have fired (-1: no bound),
        or a callback called :meth:`stop`; returns how many fired."""
        queue = self.queue
        active = queue._active
        fired = 0
        while fired != limit:
            if not active:
                if not queue._settle():  # next bucket, rebase, or done
                    break
                active = queue._active
                continue
            time, _seq, target, args = active[0]
            if time > until:
                break
            heappop(active)
            if args is None:  # a cancellable Event: skip, or unwrap
                if target.cancelled:
                    continue
                target.fired = True
                target = target.callback
                args = ()
            if time < self.now:
                raise SimulationError(
                    "event queue returned an event from the past")
            queue._live -= 1
            self.now = time
            self._events_processed += 1
            target(*args)
            fired += 1
            if self._stopped:
                break
        return fired

    def step(self) -> bool:
        """Process one event.  Returns False when the queue is empty."""
        return self._drain(inf, 1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` (ms) is reached, or
        ``max_events`` have been processed.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drained earlier, so metrics windows are exact —
        unless ``max_events`` or :meth:`stop` cut the run short (events due
        before ``until`` may then be pending still).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        limit = -1 if max_events is None else max_events
        try:
            fired = self._drain(inf if until is None else until, limit)
        finally:
            self._running = False
        if until is not None and self.now < until and fired != limit \
                and not self._stopped:
            self.now = until

    def stop(self) -> None:
        """Stop the loop after the current event completes."""
        self._stopped = True

    @property
    def events_processed(self) -> int:
        """Total events executed so far (for harness diagnostics)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def fork_rng(self, tag: str) -> random.Random:
        """Derive an independent, deterministic RNG stream for a component.

        Forked streams decouple components: adding RNG draws in one
        component does not perturb another's sequence across code changes.
        """
        return random.Random(f"{self.seed}/{tag}")


#: Values a block reader takes from its stream at a time (even, so a block
#: of normals ends on a whole Box-Muller pair).
DRAW_BLOCK = 512

_TWOPI = 2.0 * pi


def normal_block(rng: random.Random) -> list[float]:
    """The next standard normals of ``rng``: ``rng.gauss(mu, sigma)`` would
    have returned ``mu + z * sigma`` for each ``z``, in order.

    The stdlib's own Box-Muller pairs, operation for operation:
    ``random() * TWOPI``, then ``sqrt(-2.0 * log(1.0 - random()))``, the
    cos value first and the sin value second.  A pending ``gauss_next``
    leads the block and is cleared, so the stream reads on exactly as
    per-draw ``gauss`` calls would.
    """
    uniform = list(starmap(rng.random, repeat((), DRAW_BLOCK)))
    angle = list(map(mul, uniform[0::2], repeat(_TWOPI)))
    radius = list(map(sqrt, map(mul, repeat(-2.0),
                                map(log, map(sub, repeat(1.0),
                                             uniform[1::2])))))
    block = uniform  # reused: same length, values replaced
    block[0::2] = map(mul, map(cos, angle), radius)
    block[1::2] = map(mul, map(sin, angle), radius)
    if rng.gauss_next is not None:
        block.insert(0, rng.gauss_next)
        rng.gauss_next = None
    return block


def exponential_block(rng: random.Random) -> list[float]:
    """The next standard exponentials of ``rng``: ``rng.expovariate(lambd)``
    would have returned ``e / lambd`` for each ``e``, in order (the
    stdlib's ``-log(1.0 - random())``)."""
    return list(map(neg, map(log, map(
        sub, repeat(1.0), starmap(rng.random, repeat((), DRAW_BLOCK))))))


_WORDS = struct.Struct(f"<{DRAW_BLOCK}I")

#: ``random()`` is a 53-bit integer over this.
TWO_53 = 9007199254740992.0

#: A ``randrange`` bound decoded from one word is below this.
WORD_BOUND = 1 << 32


def word_block(rng: random.Random) -> "tuple[int, ...]":
    """The next 32-bit Mersenne Twister outputs of ``rng``, in draw order.

    ``getrandbits(32 * n)`` draws ``n`` outputs and places the first in
    the lowest 32 bits, so splitting it little-endian gives them back one
    by one.  The stdlib builds every draw from these words:

    * ``random()`` from two, ``a`` and ``b``: ``((a >> 5) * 67108864.0 +
      (b >> 6)) / TWO_53``;
    * ``randrange(n)`` (and ``choice``, ``sample``) for ``0 < n <
      WORD_BOUND`` from one ``w >> (32 - n.bit_length())``, drawn again
      while it is at least ``n``;
    * ``expovariate`` and ``lognormvariate`` from ``random()`` values.
    """
    return _WORDS.unpack(
        rng.getrandbits(32 * DRAW_BLOCK).to_bytes(4 * DRAW_BLOCK, "little"))


__all__ = ["DRAW_BLOCK", "Simulator", "TWO_53", "WORD_BOUND",
           "exponential_block", "normal_block", "word_block"]
