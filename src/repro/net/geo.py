"""Geo-distributed latency: per-link RTTs from a region matrix.

The paper's WAN is NetEm-uniform (every link 40 ± 0.2 ms).  Real wide-area
deployments are not uniform, and protocol behaviour under *asymmetric*
latency is worth studying — quorum-based protocols (Achilles waits for the
fastest f+1 votes) degrade more gracefully than broadcast-synchronised
ones.  :class:`GeoLatencyModel` assigns each node to a region and samples
per-link delays from an inter-region RTT matrix; the network fabric picks
it up automatically through the ``link_gaussian`` and ``sample_link``
hooks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.net.latency import MIN_ONE_WAY_MS

#: A small, realistic inter-region RTT matrix (milliseconds), loosely
#: modelled on public cloud measurements.  Intra-region ≈ 1 ms.
DEFAULT_REGION_RTTS: Dict[Tuple[str, str], float] = {
    ("us-east", "us-east"): 1.0,
    ("eu-west", "eu-west"): 1.0,
    ("ap-east", "ap-east"): 1.0,
    ("us-east", "eu-west"): 75.0,
    ("us-east", "ap-east"): 200.0,
    ("eu-west", "ap-east"): 180.0,
}

#: The regions :meth:`GeoLatencyModel.spread_across` places nodes in.
REGIONS = ("us-east", "eu-west", "ap-east")


@dataclass
class GeoLatencyModel:
    """Per-link Gaussian delays driven by a region matrix."""

    name: str
    node_regions: Dict[int, str]
    region_rtts: Mapping[Tuple[str, str], float] = field(
        default_factory=lambda: dict(DEFAULT_REGION_RTTS))
    jitter_fraction: float = 0.02

    def __post_init__(self) -> None:
        for node, region in self.node_regions.items():
            if not any(region in pair for pair in self.region_rtts):
                raise ConfigurationError(
                    f"node {node} is in unknown region {region!r}")

    # ------------------------------------------------------------------
    def link_rtt(self, src: int, dst: int) -> float:
        """RTT between two nodes' regions."""
        a = self.node_regions.get(src)
        b = self.node_regions.get(dst)
        if a is None or b is None:
            # Clients and other unplaced endpoints: nearest-region access.
            return min(v for k, v in self.region_rtts.items() if k[0] == k[1])
        rtt = self.region_rtts.get((a, b)) or self.region_rtts.get((b, a))
        if rtt is None:
            raise ConfigurationError(f"no RTT configured between {a} and {b}")
        return rtt

    @property
    def rtt_ms(self) -> float:
        """Mean RTT across all configured links (for reporting)."""
        values = list(self.region_rtts.values())
        return sum(values) / len(values)

    @property
    def one_way_ms(self) -> float:
        """Mean one-way delay across links (used for client hops)."""
        return self.rtt_ms / 2.0

    # ------------------------------------------------------------------
    def link_gaussian(self, src: int, dst: int) -> Tuple[float, float]:
        """Mean and standard deviation of the src→dst one-way delay."""
        one_way = self.link_rtt(src, dst) / 2.0
        return one_way, one_way * self.jitter_fraction

    def sample_link(self, src: int, dst: int, rng: random.Random) -> float:
        """One one-way delay for the src→dst link."""
        delay = rng.gauss(*self.link_gaussian(src, dst))
        return max(MIN_ONE_WAY_MS, delay)

    def sample(self, rng: random.Random) -> float:
        """Fallback API parity: a delay for an average link."""
        return max(MIN_ONE_WAY_MS, self.one_way_ms)

    # ------------------------------------------------------------------
    @classmethod
    def spread_across(cls, n: int) -> "GeoLatencyModel":
        """Assign n nodes round-robin across :data:`REGIONS`."""
        assignment = {i: REGIONS[i % len(REGIONS)] for i in range(n)}
        return cls(name="geo", node_regions=assignment)


__all__ = ["GeoLatencyModel", "DEFAULT_REGION_RTTS"]
