"""Link latency profiles.

The paper emulates networks with NetEm: LAN at 0.1±0.02 ms RTT and WAN at
40±0.2 ms RTT (Sec. 5.1 / D.2.2).  A :class:`LatencyProfile` samples
*one-way* propagation delays (half the RTT) with Gaussian jitter, clamped
to a small positive floor so causality always holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Hard floor on any one-way delay (ms) — no zero/negative propagation.
MIN_ONE_WAY_MS = 0.001


@dataclass(frozen=True)
class LatencyProfile:
    """Gaussian one-way delay derived from an RTT spec.

    ``rtt_ms`` and ``jitter_ms`` mirror NetEm's ``delay <rtt> <jitter>``
    applied symmetrically: one-way mean is ``rtt/2`` and one-way standard
    deviation ``jitter/2``.
    """

    name: str
    rtt_ms: float
    jitter_ms: float

    @property
    def one_way_ms(self) -> float:
        """Mean one-way propagation delay."""
        return self.rtt_ms / 2.0

    def sample(self, rng: random.Random) -> float:
        """Draw one one-way delay."""
        delay = rng.gauss(self.rtt_ms / 2.0, self.jitter_ms / 2.0)
        return delay if delay > MIN_ONE_WAY_MS else MIN_ONE_WAY_MS


@dataclass(frozen=True)
class FixedLatency:
    """A jitter-free profile (useful for exact-latency unit tests)."""

    name: str
    one_way: float

    @property
    def rtt_ms(self) -> float:
        """Round-trip time implied by the fixed one-way delay."""
        return 2 * self.one_way

    @property
    def one_way_ms(self) -> float:
        """Mean one-way delay (alias for API parity with LatencyProfile)."""
        return self.one_way

    def sample(self, rng: random.Random) -> float:
        """Always return the fixed one-way delay."""
        return max(MIN_ONE_WAY_MS, self.one_way)


#: The paper's LAN: 0.1 ± 0.02 ms inter-node RTT.
LAN_PROFILE = LatencyProfile(name="LAN", rtt_ms=0.1, jitter_ms=0.02)

#: The paper's WAN: 40 ± 0.2 ms inter-node RTT (NetEm emulated).
WAN_PROFILE = LatencyProfile(name="WAN", rtt_ms=40.0, jitter_ms=0.2)

__all__ = ["LatencyProfile", "FixedLatency", "LAN_PROFILE", "WAN_PROFILE", "MIN_ONE_WAY_MS"]
