"""What a run holds per transaction answers as a ``set`` and a ``list`` would.

Four holders keep something per transaction for the whole run: the
mempool's dedup keys (``QueueSource``), the collector's replied keys and
its latency samples (``MetricsCollector``, ``LatencyStats``) and the
monitor's applied keys (``InvariantMonitor``, exactly-once-apply).  How
they store it is a host-memory choice only, so each is held here to an
oracle written with a plain ``set``, ``dict`` or ``list``: admissions and
drops by reason, first replies and duplicate counts, percentiles, and
every exactly-once violation with its message.

The key streams mix the shapes the program mints: one global counter with
the client derived from the id (the generators), per-client counters
(simulated clients, routers), sparse and repeated ids, client 0, ids past
2**32 and negative ids.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.chain.block import Block, GENESIS_HASH
from repro.chain.transaction import Transaction, TxBatch
from repro.client.workload import DROP_DUPLICATE, DROP_OVERFLOW, QueueSource
from repro.harness.invariants import InvariantMonitor
from repro.harness.metrics import (LatencyStats, MetricsCollector,
                                   WindowedLatencyStats)

# ----------------------------------------------------------------------
# Key streams
# ----------------------------------------------------------------------
#: A run of ids from one global counter, the client derived from the id.
global_run = st.builds(
    lambda start, n, clients: [(i % clients, i)
                               for i in range(start, start + n)],
    st.integers(0, 200), st.integers(1, 40), st.sampled_from([1, 16, 64]))
#: Per-client counters: a few clients, each counting from 0 or 1.
per_client = st.builds(
    lambda base, clients, n, order: [
        (base + c, first + k) for k in range(n) for c in range(clients)
        for first in (order,)],
    st.sampled_from([0, 10_000, 50_000]), st.integers(1, 4),
    st.integers(1, 12), st.sampled_from([0, 1]))
#: Anything else: sparse, repeated, huge and negative ids and clients.
odd_key = st.tuples(
    st.sampled_from([0, 1, 3, 63, 10_000, -1, -7, 2**40]),
    st.one_of(st.integers(0, 300), st.sampled_from(
        [2**32, 2**32 + 1, 2**40, -1, -2, 5_000, 1 << 62])))
key_batch = st.one_of(global_run, per_client,
                      st.lists(odd_key, min_size=1, max_size=12))


def land(queue: QueueSource, txs) -> int:
    """``queue._admit`` of ``txs`` landed as one batch."""
    batch = TxBatch.of(txs)
    return queue._admit(batch.n, *batch.columns())


def transactions(keys, created_at: float = 0.0) -> list:
    return [Transaction(client_id=c, tx_id=i, created_at=created_at)
            for c, i in keys]


def block_of(txs, height: int, parent: str = GENESIS_HASH,
             op: str = "op", proposer: int = 0) -> Block:
    """A committed block at ``height`` carrying ``txs``."""
    return Block(txs=TxBatch.of(txs), op=op, parent_hash=parent,
                 view=height, height=height, proposer=proposer)


# ----------------------------------------------------------------------
# QueueSource: the door
# ----------------------------------------------------------------------
class QueueOracle:
    """The mempool door written with a set: a key seen is a duplicate, a
    full queue drops the rest as overflow, and a dropped key is not seen."""

    def __init__(self, capacity) -> None:
        self.capacity = capacity
        self.seen: set = set()
        self.queue: list = []
        self.drops = {DROP_DUPLICATE: 0, DROP_OVERFLOW: 0}
        self.admitted = 0

    def admit(self, txs) -> int:
        admitted = 0
        for tx in txs:
            if tx.key in self.seen:
                self.drops[DROP_DUPLICATE] += 1
            elif self.capacity is not None and \
                    len(self.queue) >= self.capacity:
                self.drops[DROP_OVERFLOW] += 1
            else:
                self.seen.add(tx.key)
                self.queue.append(tx)
                admitted += 1
        self.admitted += admitted
        return admitted

    def take(self, count: int) -> list:
        taken, self.queue = self.queue[:count], self.queue[count:]
        return taken


operation = st.one_of(
    st.tuples(st.just("land"), key_batch),
    st.tuples(st.just("submit"), odd_key),
    st.tuples(st.just("resubmit"), st.integers(0, 10_000)),
    st.tuples(st.just("take"), st.integers(0, 30)),
    st.tuples(st.just("reset"), st.none()))


@settings(max_examples=150, deadline=None)
@given(capacity=st.one_of(st.none(), st.integers(1, 40)),
       ops=st.lists(operation, max_size=25))
def test_the_queue_admits_and_drops_as_the_set_oracle(capacity, ops):
    queue, oracle = QueueSource(capacity=capacity), QueueOracle(capacity)
    offered: list = []
    for kind, arg in ops:
        if kind == "land":
            txs = transactions(arg)
            offered += txs
            assert land(queue, (txs)) == oracle.admit(txs)
        elif kind == "submit":
            [tx] = transactions([arg])
            offered.append(tx)
            assert queue.submit(tx) == (oracle.admit([tx]) == 1)
        elif kind == "resubmit" and offered:
            # A retry of an earlier transaction, dropped or not.
            tx = offered[arg % len(offered)]
            assert queue.submit(tx) == (oracle.admit([tx]) == 1)
        elif kind == "take":
            assert list(queue.take(arg, 0.0)) == oracle.take(arg)
        elif kind == "reset":
            queue.reset()
            oracle.seen.clear()
            oracle.queue.clear()
        assert queue.pending() == len(oracle.queue)
        for reason, count in oracle.drops.items():
            assert queue.dropped(reason) == count
    assert queue.submitted == oracle.admitted
    assert list(queue.take(1 << 30, 0.0)) == oracle.queue


def test_a_retry_after_an_overflow_drop_is_admitted():
    queue = QueueSource(capacity=2)
    a, b, c = transactions([(0, 1), (1, 2), (2, 3)])
    assert queue.submit(a) and queue.submit(b)
    assert not queue.submit(c)
    assert queue.drops == {DROP_OVERFLOW: 1}
    # Full again: a key already seen is a duplicate, not an overflow.
    assert not queue.submit(a)
    assert queue.drops == {DROP_OVERFLOW: 1, DROP_DUPLICATE: 1}
    assert list(queue.take(1, 0.0)) == [a]
    assert queue.submit(c)                  # the retry gets in
    assert not queue.submit(c)              # and is now seen
    assert list(queue.take(10, 0.0)) == [b, c]
    assert queue.submitted == 3


def test_a_landed_batch_past_capacity_is_admitted_up_to_it():
    queue = QueueSource(capacity=3)
    batch = transactions([(i % 16, i) for i in range(1, 6)])
    assert land(queue, (batch)) == 3
    assert queue.drops == {DROP_OVERFLOW: 2}
    assert list(queue.take(10, 0.0)) == batch[:3]
    # The dropped two were never seen: they land on a retry.
    assert land(queue, (batch[3:])) == 2
    assert land(queue, (batch)) == 0
    assert queue.drops == {DROP_OVERFLOW: 2, DROP_DUPLICATE: 5}


def test_reset_forgets_every_key():
    queue = QueueSource()
    batch = transactions([(i % 64, i) for i in range(1, 101)])
    assert land(queue, (batch)) == 100
    queue.reset()
    assert queue.pending() == 0
    assert land(queue, (batch)) == 100
    assert queue.submit(Transaction(10_000, 1))
    queue.reset()
    assert queue.submit(Transaction(10_000, 1))
    assert queue.duplicates_dropped == 0


# ----------------------------------------------------------------------
# MetricsCollector: first replies
# ----------------------------------------------------------------------
class ReplyOracle:
    """First reply per key wins; later ones count as duplicates; a reply
    before the warm-up ends marks its key but leaves no sample.  Every
    replica reports a block, and its re-reports are duplicates by
    construction."""

    def __init__(self, warmup_ms: float, hop: float, window_ms: float) -> None:
        self.warmup_ms, self.hop, self.window_ms = warmup_ms, hop, window_ms
        self.replied: set = set()
        self.blocks: set = set()
        self.samples: list = []
        self.windows: dict = {}
        self.duplicates = 0

    def reply(self, block, now: float) -> None:
        txs = list(block.txs)
        if txs:
            if block.hash in self.blocks:
                self.duplicates += len(txs)
                return
            self.blocks.add(block.hash)
        for tx in txs:
            if tx.key in self.replied:
                self.duplicates += 1
                continue
            self.replied.add(tx.key)
            if now < self.warmup_ms:
                continue
            arrival = now + self.hop
            self.samples.append(arrival - tx.created_at)
            self.windows.setdefault(int(arrival // self.window_ms), []) \
                .append(arrival - tx.created_at)


@settings(max_examples=150, deadline=None)
@given(batches=st.lists(st.tuples(key_batch, st.integers(0, 3)), max_size=12),
       repeats=st.lists(st.integers(0, 100), max_size=6))
def test_first_replies_and_duplicates_match_the_set_oracle(batches, repeats):
    collector = MetricsCollector(warmup_ms=20.0, reply_one_way_ms=0.5,
                                 window_ms=15.0)
    oracle = ReplyOracle(20.0, 0.5, 15.0)
    blocks = [block_of(transactions(keys, created_at=3.0 * k), k + 1)
              for k, (keys, _) in enumerate(batches)]
    # Every node reports each block, and some blocks again later (a
    # transaction carried in two batches, a late re-report).
    reports = [(node, block) for block, (_, nodes) in zip(blocks, batches)
               for node in range(nodes + 1)]
    if blocks:
        reports += [(9, blocks[r % len(blocks)]) for r in repeats]
    for step, (node, block) in enumerate(reports):
        now = 5.0 * step
        collector.on_replies(node, block, now)
        oracle.reply(block, now)
    assert list(collector.e2e_latency.samples) == oracle.samples
    assert collector.duplicate_replies == oracle.duplicates
    windows = collector.e2e_windows
    assert windows.indices() == sorted(oracle.windows)
    for idx, samples in oracle.windows.items():
        assert list(windows.window(idx).samples) == samples


def test_a_transaction_carried_in_two_batches_is_sampled_once():
    collector = MetricsCollector(reply_one_way_ms=1.0)
    first = block_of(transactions([(1, 1), (2, 2), (3, 3)], created_at=2.0),
                     1)
    # A later block carries key (2, 2) again, beside two new ones.
    second = block_of(transactions([(2, 2), (4, 4), (5, 5)], created_at=4.0),
                      2)
    for node in range(3):
        collector.on_replies(node, first, 10.0)
    collector.on_replies(0, second, 20.0)
    collector.on_replies(1, second, 21.0)
    assert list(collector.e2e_latency.samples) == [9.0, 9.0, 9.0, 17.0, 17.0]
    assert collector.duplicate_replies == 6 + 1 + 3
    collector.on_reply(2, first.txs[0], 30.0)
    assert collector.duplicate_replies == 11
    assert collector.e2e_latency.count == 5


def test_a_block_with_the_same_endpoints_keeps_its_first_replies():
    """Two blocks whose batches share their first key, last key and
    length are two blocks: the second one's new key gets its first reply
    and its sample."""
    collector = MetricsCollector(reply_one_way_ms=1.0)
    oracle = ReplyOracle(0.0, 1.0, 15.0)
    first = block_of(transactions([(0, 0)] * 12, created_at=1.0), 1)
    second = block_of(transactions([(0, 0)] * 10 + [(0, 1), (0, 0)],
                                   created_at=2.0), 2, first.hash)
    for now, block in ((10.0, first), (20.0, second)):
        collector.on_replies(0, block, now)
        oracle.reply(block, now)
    assert list(collector.e2e_latency.samples) == oracle.samples \
        == [10.0, 19.0]
    assert collector.duplicate_replies == oracle.duplicates == 22


# ----------------------------------------------------------------------
# LatencyStats: order statistics over what was added
# ----------------------------------------------------------------------
def nearest_rank(values: list, p: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(p / 100.0 * len(ordered)) - 1))
    return ordered[rank]


latencies = st.lists(st.floats(0.0, 1e4, allow_nan=False), max_size=300)


@settings(max_examples=150, deadline=None)
@given(first=latencies, second=latencies, singles=latencies)
def test_latency_stats_match_the_list_oracle(first, second, singles):
    stats = LatencyStats()
    stats.add_many(first)
    for value in singles:
        stats.add(value)
    assert stats.p50 == nearest_rank(first + singles, 50.0)   # cached view
    other = LatencyStats()
    other.add_many(second)
    stats.merge_from(other)
    values = first + singles + second
    assert list(stats.samples) == values
    assert stats.count == len(values)
    assert stats.mean == (sum(values) / len(values) if values else 0.0)
    for p in (0.0, 50.0, 99.0, 99.9, 100.0):
        assert stats.percentile(p) == nearest_rank(values, p)
    assert (stats.p50, stats.p99, stats.p999) == tuple(
        nearest_rank(values, p) for p in (50.0, 99.0, 99.9))
    assert list(other.samples) == second


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(st.tuples(st.floats(0.0, 500.0, allow_nan=False),
                                  st.floats(0.0, 1e4, allow_nan=False),
                                  st.booleans()), max_size=200))
def test_windowed_stats_match_the_list_oracle(samples):
    windows, oracle = WindowedLatencyStats(25.0), {}
    for value, at, batched in samples:
        if batched:
            windows.add_many([value, value], at)
            oracle.setdefault(int(at // 25.0), []).extend([value, value])
        else:
            windows.add(value, at)
            oracle.setdefault(int(at // 25.0), []).append(value)
    assert windows.indices() == sorted(oracle)
    assert windows.count == sum(map(len, oracle.values()))
    for idx, values in oracle.items():
        window = windows.window(idx)
        assert list(window.samples) == values
        assert (window.p50, window.p99, window.p999) == tuple(
            nearest_rank(values, p) for p in (50.0, 99.0, 99.9))
    assert windows.window(-5).count == 0


# ----------------------------------------------------------------------
# InvariantMonitor: exactly-once-apply
# ----------------------------------------------------------------------
def exactly_once_oracle(commits) -> list:
    """The audit written with a dict per node (key -> the hash of the
    block that applied it): every (node, message) it reports, in order."""
    applied: dict = {}
    found = []
    for node, block in commits:
        seen = applied.setdefault(node, {})
        for tx in block.txs:
            earlier = seen.get(tx.key)
            if earlier is not None:
                found.append((node,
                              f"tx {tx.key} applied twice: in block "
                              f"{earlier[:12]} and again in "
                              f"{block.hash[:12]} (height {block.height})"))
            else:
                seen[tx.key] = block.hash
    return found


@settings(max_examples=150, deadline=None)
@given(chains=st.lists(st.lists(key_batch, min_size=1, max_size=8),
                       min_size=1, max_size=3),
       replays=st.lists(st.integers(0, 20), max_size=4))
def test_exactly_once_trips_as_the_dict_oracle(chains, replays):
    monitor = InvariantMonitor()
    commits = []
    for node, batches in enumerate(chains):
        parent = GENESIS_HASH
        for height, keys in enumerate(batches, start=1):
            block = block_of(transactions(keys), height, parent,
                             op=f"n{node}", proposer=node)
            commits.append((node, block))
            parent = block.hash
    for node, block in commits:
        monitor.on_commit(node, block, 0.0)
    found = [(v.node, v.message) for v in monitor.violations
             if v.invariant == "exactly-once-apply"]
    assert found == exactly_once_oracle(commits)
    # A power-cut replay re-commits the same blocks: never a second apply.
    before = len(monitor.violations)
    for r in replays:
        node, _ = commits[r % len(commits)]
        mine = [block for n, block in commits if n == node]
        monitor.note_power_cut(node, durable_height=0)
        for block in mine:
            monitor.on_commit(node, block, 1.0)
    assert [v for v in monitor.violations[before:]
            if v.invariant == "exactly-once-apply"] == []
