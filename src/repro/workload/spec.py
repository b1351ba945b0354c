"""Declarative description of a production-shaped workload.

A :class:`WorkloadSpec` is a frozen value object: together with a seed it
fully determines the arrival process (see
:class:`repro.workload.generators.ArrivalEngine`).  Specs are plain
dataclasses of scalars and tuples so they pickle cleanly into the
parallel harness and hash into result digests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.sim.loop import WORD_BOUND


@dataclass(frozen=True)
class FlashCrowd:
    """A bounded window during which the offered rate is multiplied.

    Models a traffic spike (viral event, failover from a sibling
    deployment): for ``duration_ms`` starting at ``at_ms`` the
    instantaneous arrival rate is scaled by ``multiplier``.
    """

    at_ms: float
    duration_ms: float
    multiplier: float

    def __post_init__(self) -> None:
        if self.at_ms < 0 or self.duration_ms <= 0:
            raise ValueError("flash crowd window must be non-negative/positive")
        if self.multiplier <= 0:
            raise ValueError("flash crowd multiplier must be > 0")

    @property
    def end_ms(self) -> float:
        return self.at_ms + self.duration_ms

    def active_at(self, now_ms: float) -> bool:
        return self.at_ms <= now_ms < self.end_ms


@dataclass(frozen=True)
class ChurnEvent:
    """A mass client churn step: at ``at_ms`` the active client
    population becomes ``population``.

    Rate scales proportionally with population (each client contributes
    ``base_rate_tps / clients`` on average), so a churn event that halves
    the population halves the offered load — and arrivals drawn after the
    event only name client ids below the new population.
    """

    at_ms: float
    population: int

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("churn event time must be >= 0")
        if self.population <= 0:
            raise ValueError("churn population must be > 0 (use rate for outages)")
        if self.population >= WORD_BOUND:
            raise ValueError(f"churn population must be below 2**32 (a client "
                             f"is one word's draw), got {self.population}")


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that shapes the arrival process, minus the seed.

    ``base_rate_tps``
        Aggregate offered load with the full initial population active,
        before diurnal/flash modulation.
    ``arrival``
        ``"poisson"`` (memoryless) or ``"lognormal"`` (heavy-tailed
        bursts; ``lognormal_sigma`` sets the tail weight, mean gap is
        preserved).
    ``clients``
        Size of the initial client population.  Clients are seeded draws,
        not objects — hundreds of thousands cost nothing.
    ``churn``
        Population step events (see :class:`ChurnEvent`).
    ``diurnal_amplitude`` / ``diurnal_period_ms``
        Sinusoidal load curve: rate ×= ``1 + A·sin(2π·t/period)``.
        Amplitude 0 disables; amplitude must stay < 1 so rate > 0.
    ``flash_crowds``
        Bounded rate-multiplier windows (see :class:`FlashCrowd`).
    ``zipf_s`` / ``key_space``
        Hot-key skew: writes target key ranks drawn Zipf(s) over
        ``key_space`` keys.  ``key_space == 0`` keeps opaque payloads
        (no KV interpretation); ``zipf_s == 0`` is uniform.
    ``payload_size``
        Wire-size floor per transaction in bytes.
    ``client_one_way_ms``
        Client→replica injection delay.
    """

    base_rate_tps: float = 2_000.0
    arrival: str = "poisson"
    lognormal_sigma: float = 1.2
    clients: int = 100_000
    churn: tuple[ChurnEvent, ...] = field(default_factory=tuple)
    diurnal_amplitude: float = 0.0
    diurnal_period_ms: float = 3_600_000.0
    flash_crowds: tuple[FlashCrowd, ...] = field(default_factory=tuple)
    zipf_s: float = 1.1
    key_space: int = 1_000
    payload_size: int = 32
    client_one_way_ms: float = 0.1

    def __post_init__(self) -> None:
        if self.base_rate_tps <= 0:
            raise ValueError("base_rate_tps must be > 0")
        if self.arrival not in ("poisson", "lognormal"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.lognormal_sigma <= 0:
            raise ValueError("lognormal_sigma must be > 0")
        if not 0 < self.clients < WORD_BOUND:
            raise ValueError(f"clients must be in [1, 2**32) (a client is one "
                             f"word's draw), got {self.clients}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period_ms <= 0:
            raise ValueError("diurnal_period_ms must be > 0")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")
        if self.key_space < 0:
            raise ValueError("key_space must be >= 0")
        if self.payload_size < 0:
            raise ValueError("payload_size must be >= 0")
        if self.client_one_way_ms < 0:
            raise ValueError("client_one_way_ms must be >= 0")
        # Churn events must be time-ordered so population lookup is a scan.
        times = [c.at_ms for c in self.churn]
        if times != sorted(times):
            raise ValueError("churn events must be sorted by at_ms")

    def segments(self) -> "tuple[tuple[float, float, tuple[float, ...], int], ...]":
        """The churn steps and flash windows compiled into segments.

        One ``(start_ms, share, boosts, population)`` per instant from
        which the population and the set of active flash windows hold
        until the next segment starts (the first starts at ``-inf``):
        ``share`` is ``base_rate_tps`` times the population fraction, as
        :meth:`rate_at` computes it, and ``boosts`` are the active
        multipliers in spec order.  Each segment is evaluated with
        :meth:`population_at` and :meth:`FlashCrowd.active_at` at its
        start, so on ``[start, next start)`` it equals them.
        """
        starts = {event.at_ms for event in self.churn}
        for crowd in self.flash_crowds:
            starts.update((crowd.at_ms, crowd.end_ms))
        segments = []
        for start in [-math.inf] + sorted(starts):
            population = self.population_at(start)
            segments.append((
                start, self.base_rate_tps * (population / self.clients),
                tuple(crowd.multiplier for crowd in self.flash_crowds
                      if crowd.active_at(start)),
                population))
        return tuple(segments)

    def population_at(self, now_ms: float) -> int:
        """Active client population at ``now_ms`` (steps at churn events)."""
        population = self.clients
        for event in self.churn:
            if event.at_ms <= now_ms:
                population = event.population
            else:
                break
        return population

    def rate_at(self, now_ms: float) -> float:
        """Instantaneous offered rate (tx/s) at ``now_ms``.

        base × population-fraction × diurnal curve × flash multipliers.
        """
        rate = self.base_rate_tps * (self.population_at(now_ms) / self.clients)
        if self.diurnal_amplitude:
            rate *= 1.0 + self.diurnal_amplitude * math.sin(
                2.0 * math.pi * now_ms / self.diurnal_period_ms
            )
        for crowd in self.flash_crowds:
            if crowd.active_at(now_ms):
                rate *= crowd.multiplier
        return rate
