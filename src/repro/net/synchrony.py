"""Partial synchrony (Dwork, Lynch, Stockmeyer).

The system model (paper Sec. 3.1): there is a known bound Δ and an unknown
Global Stabilization Time (GST); any message sent between two honest nodes
after GST is delivered within Δ.  Before GST the scheduler (i.e. the
adversary) may delay messages arbitrarily.

:class:`PartialSynchrony` converts a nominal (profile-sampled) delay into an
actual delay: after GST the nominal delay is used as-is but capped at Δ;
before GST an adversary-controlled extra delay is added — by default a
random asynchrony drawn up to ``pre_gst_max_extra_ms``, but tests can
install a custom pre-GST schedule for worst-case executions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class PartialSynchrony:
    """GST/Δ model applied on top of a latency profile."""

    delta_ms: float = 1000.0
    gst_ms: float = 0.0
    pre_gst_max_extra_ms: float = 500.0
    pre_gst_delay_fn: Optional[Callable[[int, int, float], float]] = None

    def actual_delay(self, src: int, dst: int, now: float, nominal: float, rng: random.Random) -> float:
        """Map a nominal propagation delay to the delay actually experienced."""
        if now >= self.gst_ms:
            # Synchronous period: delivery within Δ is guaranteed.
            delta = self.delta_ms
            return delta if delta < nominal else nominal
        if self.pre_gst_delay_fn is not None:
            extra = self.pre_gst_delay_fn(src, dst, now)
        else:
            extra = rng.uniform(0.0, self.pre_gst_max_extra_ms)
        delay = nominal + max(0.0, extra)
        # Even an adversarial pre-GST delay cannot push delivery past GST+Δ:
        # the bound restarts at GST for messages already in flight.
        latest = (self.gst_ms - now) + self.delta_ms
        return min(delay, latest)

    def synchronous_at(self, now: float) -> bool:
        """True once the network has stabilized."""
        return now >= self.gst_ms

    @classmethod
    def always_synchronous(cls, delta_ms: float = 1000.0) -> "PartialSynchrony":
        """A model with GST = 0 (the common benchmark configuration)."""
        return cls(delta_ms=delta_ms, gst_ms=0.0)


__all__ = ["PartialSynchrony"]
