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
    _tx_free_at: Dict[int, float] = field(default_factory=dict)
    bytes_sent: Dict[int, int] = field(default_factory=dict)

    def serialize(self, node_id: int, now: float, size_bytes: int) -> float:
        """Occupy the node's NIC for ``size_bytes``; return completion time.

        The returned time is when the *last byte* leaves the NIC — i.e. the
        moment propagation delay starts counting for this message.
        """
        if self.bytes_per_ms <= 0:
            return now
        # Once per message: a node's first send takes the except arm, the
        # rest cost no call.
        try:
            free_at = self._tx_free_at[node_id]
            self.bytes_sent[node_id] += size_bytes
        except KeyError:
            free_at = self._tx_free_at.get(node_id, 0.0)
            self.bytes_sent[node_id] = self.bytes_sent.get(node_id, 0) + size_bytes
        finish = (now if now > free_at else free_at) + size_bytes / self.bytes_per_ms
        self._tx_free_at[node_id] = finish
        return finish

    def tx_backlog(self, node_id: int, now: float) -> float:
        """Milliseconds of queued transmit work at ``now``."""
        return max(0.0, self._tx_free_at.get(node_id, 0.0) - now)

    def reset_node(self, node_id: int) -> None:
        """Clear a node's queue (used on reboot)."""
        self._tx_free_at.pop(node_id, None)

    @classmethod
    def unlimited(cls) -> "BandwidthModel":
        """An infinite-bandwidth model for logic-only tests."""
        return cls(bytes_per_ms=0.0)


__all__ = ["BandwidthModel", "GBPS_10_BYTES_PER_MS"]
