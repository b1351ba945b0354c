"""A host-memory budget per transaction, per holder.

Four holders keep something per transaction for the whole run: the
mempool's dedup keys (``QueueSource``), the collector's first replies and
its latency samples (``MetricsCollector``, ``LatencyStats``) and each
node's applied keys (``InvariantMonitor``).  Each is fed a recorded
transaction stream of a fixed small run under ``tracemalloc`` and the
bytes it keeps at the end are divided by the transactions it was fed.
The stream's transactions are made before the count and kept alive, as
the blocks of a real run keep them, so a holder is charged only for what
it adds.  Three streams: open-loop arrivals (one global counter, the client
derived from the id), soak-shaped traffic into a bounded mempool (one
counter, random clients, gaps where arrivals were dropped), and simulated
clients, each counting its own ids, whose requests reach the mempool one
at a time through ``submit`` (several clients meet at every id).

Like ``test_call_budget.py`` pins calls, this pins bytes: a budget may go
down, never silently up.  Byte counts are a property of the code and the
interpreter (64-bit CPython), not of the load on the machine.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from unittest import mock

import pytest

from repro.chain.block import Block, GENESIS_HASH
from repro.chain.transaction import MIN_SLOTS
from repro.client.client import SimulatedClient
from repro.client.workload import OpenLoopGenerator, QueueSource
from repro.harness.invariants import InvariantMonitor
from repro.harness.metrics import MetricsCollector
from repro.sim.loop import Simulator
from repro.workload.generators import TrafficGenerator
from repro.workload.spec import FlashCrowd, WorkloadSpec

#: Bytes kept per transaction: ``(holder, stream): (budget, what the
#: holder kept as a set, a dict or a list of floats)``.  The budgets sit a
#: little above the readings when they were set (monitor 9.2, 15.4 and
#: 33.6, queue 4.4, 7.5 and 29.2, replies 4.9, 7.9 and 29.7, samples 8.2
#: and 8.1); the old figures are the same streams through the containers
#: they replaced.  A gap in the soak stream is an empty slot, so it costs
#: more per key.  Per-client counters fill a slot only for the first
#: client to reach each id; the other keys cost what a set of them costs
#: (:func:`test_keys_of_several_clients_cost_a_set_and_the_array`).
BYTES_PER_TX = {
    ("monitor", "open-loop"): (10.0, 32.8),
    ("monitor", "per-client"): (35.0, 33.0),
    ("monitor", "soak"): (16.5, 28.9),
    ("queue", "open-loop"): (5.0, 28.8),
    ("queue", "per-client"): (30.5, 28.9),
    ("queue", "soak"): (8.0, 50.5),
    ("replies", "open-loop"): (5.5, 29.3),
    ("replies", "per-client"): (31.0, 29.4),
    ("replies", "soak"): (8.5, 101.4),
    ("samples", "open-loop"): (8.5, 32.3),
    ("samples", "soak"): (8.5, 32.5),
}

#: Replicas that report every block to the collector and the monitor.
NODES = 4
#: Transactions per block taken from the mempool.
BATCH = 400


class Recorder(QueueSource):
    """A mempool that records what reaches its door: each landed batch (a
    list) and each submitted transaction."""

    def __init__(self, capacity=None) -> None:
        super().__init__(capacity)
        self.landed: list = []

    def _admit(self, txs) -> int:
        self.landed.append(list(txs))
        return super()._admit(txs)

    def submit(self, tx) -> bool:
        self.landed.append(tx)
        return super().submit(tx)


class Door:
    """The network of :func:`per_client_stream`: every request a client
    sends is submitted to one mempool, as a replica's ``on_ClientRequest``
    does."""

    def __init__(self, queue: QueueSource) -> None:
        self.queue = queue

    def attach(self, node_id, endpoint) -> None:
        pass

    def send(self, src, dst, payload, cause=0) -> None:
        self.queue.submit(payload.tx)


def record(queue: Recorder, sim, until: float) -> "tuple[list, list]":
    """Run ``sim`` for ``until`` ms, taking a block from ``queue`` every
    5 ms: what reached its door and the blocks taken."""
    blocks: list = []
    while sim.now < until:
        sim.run(until=sim.now + 5.0)
        while queue.pending():
            blocks.append(tuple(queue.take(BATCH, sim.now)))
    return queue.landed, blocks


def open_loop_stream() -> "tuple[list, list]":
    sim = Simulator(seed=1)
    queue = Recorder()
    OpenLoopGenerator(sim, queue, rate_tps=60_000.0).start()
    return record(queue, sim, 300.0)


def soak_stream() -> "tuple[list, list]":
    sim = Simulator(seed=1)
    queue = Recorder(capacity=600)
    spec = WorkloadSpec(base_rate_tps=60_000.0, arrival="lognormal",
                        lognormal_sigma=1.0, clients=50_000, key_space=512,
                        flash_crowds=(FlashCrowd(100.0, 50.0, 6.0),))
    TrafficGenerator(sim, queue, spec).start()
    return record(queue, sim, 300.0)


def per_client_stream() -> "tuple[list, list]":
    """16 simulated clients, each counting its own ids from 1, submit at
    60 000 tps in all, each request from a random client."""
    sim = Simulator(seed=1)
    queue = Recorder()
    door = Door(queue)
    clients = [SimulatedClient(sim, door, client_index=i, n_replicas=1)
               for i in range(16)]
    rng, at = random.Random(1), 0.0
    while at < 300.0:
        at += rng.expovariate(60.0)
        sim.schedule(at, clients[rng.randrange(len(clients))].submit)
    return record(queue, sim, 300.0)


STREAMS = {"open-loop": open_loop_stream, "per-client": per_client_stream,
           "soak": soak_stream}


def kept_bytes(build, feed) -> int:
    """Bytes that ``build()``'s holder still holds after ``feed(holder)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        holder = build()
        feed(holder)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del holder
    return kept


def feed_queue(landed):
    def feed(queue: QueueSource) -> None:
        for arrival in landed:
            if type(arrival) is list:
                queue._admit(arrival)
            else:
                queue.submit(arrival)
            queue.take(1 << 30, 0.0)        # the queue itself drains
    return feed


def feed_replies(blocks):
    def feed(collector: MetricsCollector) -> None:
        for k, block in enumerate(blocks):
            for node in range(NODES):
                collector.on_replies(node, block, 5.0 * k + node)
    return feed


def chain(blocks) -> list:
    """The blocks as a committed chain, hashed before the count."""
    out, parent = [], GENESIS_HASH
    for height, txs in enumerate(blocks, start=1):
        block = Block(txs=txs, op="op", parent_hash=parent, view=height,
                      height=height, proposer=0)
        out.append(block)
        parent = block.hash
    return out


def feed_monitor(committed):
    def feed(monitor: InvariantMonitor) -> None:
        for block in committed:
            for node in range(NODES):
                monitor.on_commit(node, block, 0.0)
    return feed


def bytes_per_tx(holder: str, stream: str) -> float:
    landed, blocks = STREAMS[stream]()
    txs = sum(map(len, blocks))
    assert txs > 10_000
    if holder == "queue":
        return kept_bytes(QueueSource, feed_queue(landed)) / txs
    if holder == "replies":
        # Every reply in the warm-up: first replies marked, no samples.
        return kept_bytes(lambda: MetricsCollector(warmup_ms=1e12),
                          feed_replies(blocks)) / txs
    if holder == "samples":
        both = kept_bytes(MetricsCollector, feed_replies(blocks))
        marks = kept_bytes(lambda: MetricsCollector(warmup_ms=1e12),
                           feed_replies(blocks))
        return (both - marks) / txs
    committed = chain(blocks)
    return kept_bytes(InvariantMonitor, feed_monitor(committed)) \
        / (txs * NODES)


@pytest.mark.parametrize("holder, stream", sorted(BYTES_PER_TX))
def test_bytes_per_transaction_stay_in_budget(holder, stream):
    budget, _before = BYTES_PER_TX[holder, stream]
    kept = bytes_per_tx(holder, stream)
    assert kept <= budget, (
        f"{holder} keeps {kept:.1f} bytes per transaction of the {stream} "
        f"stream (budget {budget}): something per transaction is an object "
        f"again")


class SetKeys(set):
    """The container a ``TxKeySet`` replaced in the mempool and the
    collector: a plain ``set``, answering ``add`` and ``add_new`` as a
    ``TxKeySet`` does."""

    def add(self, key, tag: int = 0) -> bool:
        if key in self:
            return False
        set.add(self, key)
        return True

    def add_new(self, txs, tag: int = 0) -> bool:
        keys = [tx.key for tx in txs]
        if len(set(keys)) < len(keys) or not self.isdisjoint(keys):
            return False
        self.update(keys)
        return True


@pytest.mark.parametrize("holder, module", [
    ("queue", "repro.client.workload"), ("replies", "repro.harness.metrics")])
def test_keys_of_several_clients_cost_a_set_and_the_array(holder, module):
    """Simulated clients' own counters meet at every id, so most of their
    keys find their slot taken and go to ``_rest``.  Those keys cost what
    a ``set`` of them costs: the holder keeps no more than it kept with a
    ``set``, plus the slot array (an int32 per id up to the highest, a
    quarter more, at least ``MIN_SLOTS``)."""
    landed, blocks = per_client_stream()
    txs = sum(map(len, blocks))
    top = max(tx.tx_id for block in blocks for tx in block)
    array_bytes = 4 * max(MIN_SLOTS, top + top // 4 + 1)
    with mock.patch(module + ".TxKeySet", SetKeys):
        as_set = bytes_per_tx(holder, "per-client") * txs
    kept = bytes_per_tx(holder, "per-client") * txs
    assert kept <= as_set + array_bytes, (
        f"{holder} keeps {kept - as_set:.0f} bytes more than with a set "
        f"(the array may take {array_bytes}): keys that miss the array "
        f"cost more than a set of them")
