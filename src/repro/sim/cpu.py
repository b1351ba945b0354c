"""Single-core CPU serialization model.

Every node in the simulation owns a :class:`CpuModel`.  When a handler
"performs work" it asks the CPU model to account ``cost`` milliseconds of
compute; the model returns the absolute completion time, serializing
requests the way one core would.  This is the mechanism that makes
throughput *saturate*: once a leader's per-view compute (broadcast
serialization + signature verification + enclave transitions) exceeds the
view interval, views queue up behind the CPU exactly as in the paper's
testbed.

The model intentionally ignores multi-core parallelism: the prototypes the
paper evaluates are single-pipeline consensus loops whose critical path is
one thread, and the 8-vCPU machines matter only for non-critical work
(networking offload) that we fold into per-message base costs.
"""

from __future__ import annotations


class CpuModel:
    """Tracks when a node's core frees up; accounts compute in sim-time."""

    def __init__(self) -> None:
        self.busy_until: float = 0.0

    def account(self, now: float, cost: float) -> float:
        """Reserve ``cost`` ms of compute starting no earlier than ``now``.

        Returns the absolute time at which the work completes.  ``cost`` may
        be zero (e.g. a disabled crypto profile), in which case the call
        still respects any queued work.
        """
        if cost < 0:
            raise ValueError(f"negative CPU cost: {cost}")
        busy = self.busy_until
        finish = (busy if busy > now else now) + cost
        self.busy_until = finish
        return finish

    def reset(self) -> None:
        """Clear accumulated state (used when a node reboots)."""
        self.busy_until = 0.0


__all__ = ["CpuModel"]
