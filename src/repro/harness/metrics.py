"""Metric collection.

:class:`MetricsCollector` implements the
:class:`~repro.consensus.base.CommitListener` protocol and derives the
paper's metrics (Sec. 5.1 "Performance metrics"):

* **throughput** — transactions in first-committed blocks per second of
  measured window;
* **commit latency** — leader proposal → first commit of the block;
* **end-to-end latency** — client creation → first reply (+ the reply's
  one-way client hop, folded in statistically).

"First" means the earliest among all nodes — the moment the information
exists anywhere, matching how the paper's client-side scripts measure.
A warmup window excludes cold-start effects.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import sub
from typing import Optional

from repro.chain.block import Block
from repro.chain.transaction import Transaction, TxKeySet


@dataclass
class LatencyStats:
    """Streaming latency aggregate with percentile support.

    The sorted view is computed lazily and cached: reports ask for several
    percentiles back to back (p50, p99, ...), and re-sorting tens of
    thousands of samples per call dominated report generation.  The
    samples and the sorted view are ``array('d')`` s: 8 bytes a sample,
    where a list held a float object and a pointer (32).
    """

    samples: array = field(default_factory=partial(array, "d"))
    _sorted: Optional[array] = field(default=None, repr=False)

    def add(self, value: float) -> None:
        """Record one sample (invalidates the cached sorted view)."""
        self.samples.append(value)
        self._sorted = None

    def add_many(self, values: list[float]) -> None:
        """Record a batch of samples in order (one invalidation)."""
        self.samples.extend(values)
        self._sorted = None

    @property
    def count(self) -> int:
        """Number of samples."""
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (nearest-rank; 0.0 when empty)."""
        if not self.samples:
            return 0.0
        ordered = self._sorted
        if ordered is None or len(ordered) != len(self.samples):
            ordered = self._sorted = array("d", sorted(self.samples))
        rank = max(0, min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    @property
    def p50(self) -> float:
        """Median."""
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        """99.9th percentile — the SLO tail the production-shaped runs
        report."""
        return self.percentile(99.9)

    def merge_from(self, other: "LatencyStats") -> None:
        """Fold another aggregate's samples into this one (shard rollups)."""
        if other.samples:
            self.add_many(other.samples)


class WindowedLatencyStats:
    """Per-sim-time-bucket latency aggregates (SLO timelines).

    Samples land in the bucket of their *arrival* time: window ``i``
    covers ``[i·window_ms, (i+1)·window_ms)``.  Buckets are sparse — a
    window with no samples costs nothing and reads as an empty
    :class:`LatencyStats` — so hour-long soaks at sub-second windows stay
    cheap.
    """

    def __init__(self, window_ms: float) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be > 0")
        self.window_ms = window_ms
        self._windows: dict[int, LatencyStats] = {}

    def index_of(self, at_ms: float) -> int:
        """The window index covering ``at_ms``."""
        return int(at_ms // self.window_ms)

    def add(self, value: float, at_ms: float) -> None:
        """Record one sample at simulation time ``at_ms``."""
        idx = self.index_of(at_ms)
        stats = self._windows.get(idx)
        if stats is None:
            stats = self._windows[idx] = LatencyStats()
        stats.add(value)

    def add_many(self, values: list[float], at_ms: float) -> None:
        """Record a batch of samples, all arriving at ``at_ms``."""
        if not values:
            return
        idx = self.index_of(at_ms)
        stats = self._windows.get(idx)
        if stats is None:
            stats = self._windows[idx] = LatencyStats()
        stats.add_many(values)

    def window(self, idx: int) -> LatencyStats:
        """The aggregate for window ``idx`` (empty stats if no samples)."""
        return self._windows.get(idx, _EMPTY_STATS)

    def indices(self) -> list[int]:
        """Sorted indices of non-empty windows."""
        return sorted(self._windows)

    @property
    def count(self) -> int:
        """Total samples across all windows."""
        return sum(s.count for s in self._windows.values())


#: Shared immutable-by-convention empty aggregate for absent windows.
_EMPTY_STATS = LatencyStats()


class MetricsCollector:
    """Cluster-wide metrics listener.

    ``window_ms`` (opt-in) additionally buckets end-to-end latency
    samples into a :class:`WindowedLatencyStats` timeline keyed by reply
    arrival time — the soak harness reads per-window p50/p99/p999 from
    it.  ``None`` (default) keeps the collector byte-identical to the
    historical behavior.
    """

    def __init__(self, warmup_ms: float = 0.0,
                 reply_one_way_ms: float = 0.05,
                 window_ms: Optional[float] = None) -> None:
        self.warmup_ms = warmup_ms
        self.reply_one_way_ms = reply_one_way_ms
        self.e2e_windows: Optional[WindowedLatencyStats] = (
            WindowedLatencyStats(window_ms) if window_ms else None)
        self._proposed_at: dict[str, float] = {}
        self._block_txs: dict[str, int] = {}
        self._first_commit_at: dict[str, float] = {}
        self._replied = TxKeySet()
        # Hashes of the blocks whose replies on_replies has processed.
        # Every replica reports every committed block, so after the first
        # report a block's batch is 100% duplicates — this set turns the
        # n−1 re-reports into O(1) each.
        self._blocks_replied: set[str] = set()
        self.commit_latency = LatencyStats()
        self.e2e_latency = LatencyStats()
        self.txs_committed = 0
        self.blocks_committed = 0
        #: Replies beyond the first per transaction (every replica replies,
        #: and a duplicating fabric re-delivers) — observed, never counted
        #: into throughput or latency.
        self.duplicate_replies = 0
        self.window_start: Optional[float] = None
        self.window_end: float = 0.0

    # ------------------------------------------------------------------
    # CommitListener
    # ------------------------------------------------------------------
    def on_propose(self, node: int, block: Block, now: float) -> None:
        """Record first proposal time of a block."""
        if block.hash in self._first_commit_at:
            return  # already committed (late re-proposal after a view change)
        self._proposed_at.setdefault(block.hash, now)
        self._block_txs.setdefault(block.hash, block.txs.n)

    def on_commit(self, node: int, block: Block, now: float) -> None:
        """Record first commit of a block; accumulate window counters."""
        if block.hash in self._first_commit_at:
            return
        self._first_commit_at[block.hash] = now
        # First commit recorded — the per-proposal entries are consumed
        # here and never read again, so prune them (long saturated runs
        # propose hundreds of thousands of blocks).
        proposed = self._proposed_at.pop(block.hash, None)
        self._block_txs.pop(block.hash, None)
        if now < self.warmup_ms:
            return
        if self.window_start is None:
            self.window_start = now
        self.window_end = max(self.window_end, now)
        self.blocks_committed += 1
        self.txs_committed += block.txs.n
        if proposed is not None:
            self.commit_latency.add(now - proposed)

    def on_reply(self, node: int, tx: Transaction, now: float) -> None:
        """Record the first reply per transaction (adds the client hop)."""
        if not self._replied.add(tx.key):
            self.duplicate_replies += 1
            return
        if now < self.warmup_ms:
            return
        arrival = now + self.reply_one_way_ms
        self.e2e_latency.add(arrival - tx.created_at)
        if self.e2e_windows is not None:
            self.e2e_windows.add(arrival - tx.created_at, arrival)

    def on_replies(self, node: int, block: Block, now: float) -> None:
        """Batched :meth:`on_reply` for every transaction of a committed
        block.

        Semantically identical to calling ``on_reply`` per transaction —
        every replica reports every committed transaction, so the per-call
        overhead of the unbatched path dominated commit processing.
        """
        txs = block.txs
        count = txs.n
        if not count:
            return
        if block.hash in self._blocks_replied:
            # Re-report of a processed block (another replica's commit):
            # every transaction is a duplicate by construction — the first
            # report marked them all.
            self.duplicate_replies += count
            return
        self._blocks_replied.add(block.hash)
        # No per-transaction call when every key is new (the first report
        # of a block): mark them all, sample them all.  Otherwise the first
        # occurrence of each key not replied yet is a first reply.
        replied = self._replied
        created = txs.column("created_at")
        if replied.add_new(txs.client_ids, txs.tx_ids):
            fresh = count
        else:
            created = [at for at, key in zip(created, txs.keys())
                       if replied.add(key)]
            fresh = len(created)
            self.duplicate_replies += count - fresh
        if now < self.warmup_ms or not fresh:
            # Warmup replies still mark transactions as replied (the first
            # reply wins), they just don't contribute latency samples.
            return
        arrival = now + self.reply_one_way_ms
        samples = list(map(sub, repeat(arrival), created))
        self.e2e_latency.add_many(samples)
        if self.e2e_windows is not None:
            self.e2e_windows.add_many(samples, arrival)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def throughput_ktps(self, measured_until: Optional[float] = None) -> float:
        """Committed transactions per second, in thousands."""
        if self.window_start is None:
            return 0.0
        end = measured_until if measured_until is not None else self.window_end
        elapsed_ms = end - self.warmup_ms
        if elapsed_ms <= 0:
            return 0.0
        return (self.txs_committed / (elapsed_ms / 1000.0)) / 1000.0

    def summary(self) -> dict:
        """A plain-dict snapshot for reports."""
        return {
            "txs_committed": self.txs_committed,
            "blocks_committed": self.blocks_committed,
            "throughput_ktps": self.throughput_ktps(),
            "commit_latency_ms": self.commit_latency.mean,
            "commit_latency_p99_ms": self.commit_latency.p99,
            "e2e_latency_ms": self.e2e_latency.mean,
            "e2e_latency_p99_ms": self.e2e_latency.p99,
            "e2e_latency_p999_ms": self.e2e_latency.p999,
            "duplicate_replies": self.duplicate_replies,
        }


__all__ = ["MetricsCollector", "LatencyStats", "WindowedLatencyStats"]
