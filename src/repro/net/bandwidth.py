"""Per-node NIC bandwidth / serialization model.

Each instance in the paper's testbed has one 10 Gbps private interface.
Serializing a 105 KB block (400 × 264 B transactions) onto that link takes
≈ 84 µs, and broadcasting it to 60 peers occupies the sender's NIC for
≈ 5 ms — this is the dominant throughput ceiling for Achilles at f = 30
(400 tx / ~8 ms ≈ 50 K TPS, matching the paper's 49.76 K TPS).

The model keeps one transmit queue per node: sends serialize FIFO on the
sender's NIC, then propagate independently.  Receive-side serialization is
folded into the per-message CPU base cost (NIC offload handles most of it
on real machines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: 10 Gbps expressed in bytes per millisecond.
GBPS_10_BYTES_PER_MS = 10e9 / 8 / 1000.0


@dataclass
class BandwidthModel:
    """FIFO transmit-queue model; tracks when each node's NIC frees up."""

    bytes_per_ms: float = GBPS_10_BYTES_PER_MS
    #: When each node's NIC finishes what it has queued (the last byte of
    #: a message leaves at its entry here, and propagation starts then).
    #: ``Network.send_outbox`` does the arithmetic in its loop; a host
    #: reboot leaves the queue in place.
    _tx_free_at: Dict[int, float] = field(default_factory=dict)
    bytes_sent: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def unlimited(cls) -> "BandwidthModel":
        """An infinite-bandwidth model for logic-only tests."""
        return cls(bytes_per_ms=0.0)


__all__ = ["BandwidthModel", "GBPS_10_BYTES_PER_MS"]
