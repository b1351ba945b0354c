"""Critical-path latency attribution (paper Sec. 5 / Table 4).

For each committed block the analyzer walks span parent links backward
from the work span in which the block's **first commit** was recorded,
across alternating work and net spans, until it reaches the work span in
which the block was **proposed**.  Every millisecond of the commit
latency (first commit − proposal) is attributed to one bucket:

* ``counter``  — persistent-counter writes/reads (the cost Achilles
  eliminates and the -R baselines pay on every state-updating ECALL);
* ``network``  — message flights (serialization + propagation + shaping);
* ``crypto``   — sign/verify/hash, trusted or untrusted;
* ``ecall``    — enclave transition (EENTER/EEXIT) costs;
* ``storage``  — sealed-storage reads/writes;
* ``queueing`` — time a message or task waited for the destination CPU
  (receive processing, CPU busy, same-instant event ordering);
* ``compute``  — CPU work not in any category above (batch assembly,
  execution, message send overhead);
* ``unattributed`` — remainder when the walk could not reach the
  proposal (commit triggered by block sync rather than the protocol's
  message chain, ...).

The decomposition telescopes: on a clean chain the bucket sums equal the
measured commit latency exactly, which is what the ≥95 % attribution
acceptance test checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.spans import BlockRecord, SpanTracer

#: All buckets, in report order.
BUCKETS = ("counter", "network", "crypto", "ecall", "storage",
           "queueing", "compute", "unattributed")

#: Safety bound on walk length (a commit chain is a few hops; anything
#: near this deep indicates a cycle bug, not a real path).
_MAX_HOPS = 100_000


def attribute_block(tracer: SpanTracer,
                    record: BlockRecord) -> Optional[dict[str, float]]:
    """Attribute one block's commit latency to buckets.

    Returns ``None`` when the block never committed or its anchor spans
    were not captured.
    """
    if (record.t_commit is None or record.commit_sid is None
            or record.propose_sid is None):
        return None
    latency = record.t_commit - record.t_propose
    buckets = dict.fromkeys(BUCKETS, 0.0)
    span = tracer.get(record.commit_sid)
    first = True
    reached_proposal = False
    hops = 0
    while span is not None and hops < _MAX_HOPS:
        hops += 1
        arrival = span.attrs.get("arrival", span.t0)
        cpu_start = span.attrs.get("cpu_start", span.t0)
        terminal = span.sid == record.propose_sid
        if first:
            # The commit is recorded at dispatch time, *before* the
            # committing handler's cost is charged — only the wait from
            # message arrival to dispatch lies inside the latency window.
            buckets["queueing"] += span.t0 - arrival
            first = False
        else:
            parts_sum = 0.0
            for kind, _name, cost in span.parts:
                buckets[kind if kind in buckets else "compute"] += cost
                parts_sum += cost
            buckets["compute"] += max(0.0, (span.t1 - cpu_start) - parts_sum)
            # CPU wait between dispatch and the cost window opening...
            buckets["queueing"] += cpu_start - span.t0
            if not terminal:
                # ...plus receive processing before dispatch.  The
                # proposal span's pre-dispatch wait predates t_propose
                # and is outside the latency window.
                buckets["queueing"] += span.t0 - arrival
        if terminal:
            reached_proposal = True
            break
        net = tracer.get(span.parent)
        if net is None or net.kind != "net":
            break
        buckets["network"] += net.duration
        span = tracer.get(net.parent)
    attributed = sum(buckets.values())
    buckets["unattributed"] = max(0.0, latency - attributed)
    buckets["_reached_proposal"] = 1.0 if reached_proposal else 0.0
    return buckets


@dataclass
class CostBreakdown:
    """Aggregated per-bucket attribution over a run's committed blocks."""

    blocks: int
    mean_latency_ms: float
    buckets_ms: dict[str, float]  # mean ms per block, keyed by bucket
    walked: int = 0  # blocks whose walk reached the proposal

    @property
    def attributed_ms(self) -> float:
        """Mean milliseconds accounted for by real buckets."""
        return sum(v for k, v in self.buckets_ms.items()
                   if k != "unattributed")

    @property
    def coverage(self) -> float:
        """Fraction of mean commit latency the buckets explain."""
        if self.mean_latency_ms <= 0.0:
            return 1.0 if self.blocks else 0.0
        return self.attributed_ms / self.mean_latency_ms

    def share(self, bucket: str) -> float:
        """One bucket's fraction of mean commit latency."""
        if self.mean_latency_ms <= 0.0:
            return 0.0
        return self.buckets_ms.get(bucket, 0.0) / self.mean_latency_ms


def critical_path_report(tracer: SpanTracer,
                         warmup_ms: float = 0.0) -> CostBreakdown:
    """Aggregate :func:`attribute_block` over every block committed at or
    after ``warmup_ms`` (matching :class:`MetricsCollector`'s window)."""
    totals = dict.fromkeys(BUCKETS, 0.0)
    latency_sum = 0.0
    blocks = 0
    walked = 0
    for record in tracer.blocks.values():
        if record.t_commit is None or record.t_commit < warmup_ms:
            continue
        attribution = attribute_block(tracer, record)
        if attribution is None:
            continue
        blocks += 1
        walked += int(attribution.pop("_reached_proposal", 0.0))
        latency_sum += record.t_commit - record.t_propose
        for bucket, value in attribution.items():
            totals[bucket] += value
    if blocks == 0:
        return CostBreakdown(0, 0.0, dict.fromkeys(BUCKETS, 0.0), 0)
    return CostBreakdown(
        blocks=blocks,
        mean_latency_ms=latency_sum / blocks,
        buckets_ms={k: v / blocks for k, v in totals.items()},
        walked=walked,
    )


__all__ = ["BUCKETS", "CostBreakdown", "attribute_block",
           "critical_path_report"]
