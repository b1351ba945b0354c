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

Every replica's store keeps the committed blocks themselves, so the
bytes a committed block holds per transaction are pinned too (its
``TxBatch`` columns, the block and its memoised hashes), for a saturated
block and for open-loop blocks with and without ``SET`` payloads.

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

from repro.chain.block import Block, GENESIS_HASH, create_leaf, genesis_block
from repro.chain.transaction import MIN_SLOTS, TxBatch
from repro.client.client import SimulatedClient
from repro.client.workload import (OpenLoopGenerator, QueueSource,
                                   SaturatedSource)
from repro.harness.invariants import InvariantMonitor
from repro.harness.metrics import MetricsCollector
from repro.sim.loop import Simulator
from repro.workload.generators import TrafficGenerator
from repro.workload.spec import FlashCrowd, WorkloadSpec

#: Bytes kept per transaction: ``(holder, stream): (budget, what the
#: holder kept as a set, a dict or a list of floats)``.  The budgets sit a
#: little above the readings when they were set (monitor 9.2 and 15.4,
#: queue 4.4 and 7.5, replies 4.6 and 7.6, samples 8.2 and 8.1); the old
#: figures are the same streams through the containers they replaced.  A
#: gap in the soak stream is an empty slot, so it costs more per key.
#:
#: Per-client counters fill a slot only for the first client to reach
#: each id; the other keys go to a set, each as a key tuple the holder
#: owns, since a block's batch holds columns, not the ``Transaction``
#: objects whose ``key`` the holder used to share
#: (:func:`test_keys_of_several_clients_cost_a_set_and_the_array`).  So
#: the per-client stream pins one holder and the committed blocks
#: together (:func:`block_bytes_per_tx`): readings 161.0, 43.8 and 156.8
#: (a holder 146.4, 29.2 and 142.2, the blocks 14.6); its old figures
#: are the same sum while blocks held ``Transaction`` objects (202.5).
#: The monitor keeps one set per node, so on this stream a 4-node run's
#: monitor and blocks keep more than they did (600 against 337 bytes a
#: transaction); no benchmark workload runs simulated clients.
BYTES_PER_TX = {
    ("monitor", "open-loop"): (10.0, 32.8),
    ("monitor", "per-client"): (162.5, 236.1),
    ("monitor", "soak"): (16.5, 28.9),
    ("queue", "open-loop"): (5.0, 28.8),
    ("queue", "per-client"): (45.0, 231.7),
    ("queue", "soak"): (8.0, 50.5),
    ("replies", "open-loop"): (5.5, 29.3),
    ("replies", "per-client"): (158.0, 232.2),
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
    ``TxBatch``) and each submitted transaction."""

    def __init__(self, capacity=None) -> None:
        super().__init__(capacity)
        self.landed: list = []

    def _admit(self, count, *columns) -> int:
        self.landed.append(TxBatch(*columns))
        return super()._admit(count, *columns)

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
    """Run ``sim`` for ``until`` ms, taking a batch from ``queue`` every
    5 ms: what reached its door and the batches taken."""
    batches: list = []
    while sim.now < until:
        sim.run(until=sim.now + 5.0)
        while queue.pending():
            batches.append(queue.take(BATCH, sim.now))
    return queue.landed, batches


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


def simulated_clients(sim, queue: QueueSource) -> None:
    """16 simulated clients, each counting its own ids from 1, submit to
    ``queue`` at 60 000 tps in all for 300 ms, each request from a random
    client."""
    door = Door(queue)
    clients = [SimulatedClient(sim, door, client_index=i, n_replicas=1)
               for i in range(16)]
    rng, at = random.Random(1), 0.0
    while at < 300.0:
        at += rng.expovariate(60.0)
        sim.schedule(at, clients[rng.randrange(len(clients))].submit)


def per_client_stream() -> "tuple[list, list]":
    sim = Simulator(seed=1)
    queue = Recorder()
    simulated_clients(sim, queue)
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
            if type(arrival) is TxBatch:
                queue._admit(arrival.n, *arrival.columns())
            else:
                queue.submit(arrival)
            queue.take(1 << 30, 0.0)        # the queue itself drains
    return feed


def feed_replies(committed):
    def feed(collector: MetricsCollector) -> None:
        for k, block in enumerate(committed):
            for node in range(NODES):
                collector.on_replies(node, block, 5.0 * k + node)
    return feed


def chain(batches) -> list:
    """The batches as a committed chain, hashed before the count."""
    out, parent = [], GENESIS_HASH
    for height, txs in enumerate(batches, start=1):
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
    landed, batches = STREAMS[stream]()
    txs = sum(map(len, batches))
    assert txs > 10_000
    if holder == "queue":
        return kept_bytes(QueueSource, feed_queue(landed)) / txs
    committed = chain(batches)
    if holder == "replies":
        # Every reply in the warm-up: first replies marked, no samples.
        return kept_bytes(lambda: MetricsCollector(warmup_ms=1e12),
                          feed_replies(committed)) / txs
    if holder == "samples":
        both = kept_bytes(MetricsCollector, feed_replies(committed))
        marks = kept_bytes(lambda: MetricsCollector(warmup_ms=1e12),
                           feed_replies(committed))
        return (both - marks) / txs
    return kept_bytes(InvariantMonitor, feed_monitor(committed)) \
        / (txs * NODES)


@pytest.mark.parametrize("holder, stream", sorted(BYTES_PER_TX))
def test_bytes_per_transaction_stay_in_budget(holder, stream):
    budget, _before = BYTES_PER_TX[holder, stream]
    kept = bytes_per_tx(holder, stream)
    if stream == "per-client":
        kept += block_bytes_per_tx(stream)
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

    def add_new(self, client_ids, tx_ids, tag: int = 0) -> bool:
        keys = list(zip(client_ids, tx_ids))
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
    landed, batches = per_client_stream()
    txs = sum(map(len, batches))
    top = max(max(batch.tx_ids) for batch in batches)
    array_bytes = 4 * max(MIN_SLOTS, top + top // 4 + 1)
    with mock.patch(module + ".TxKeySet", SetKeys):
        as_set = bytes_per_tx(holder, "per-client") * txs
    kept = bytes_per_tx(holder, "per-client") * txs
    assert kept <= as_set + array_bytes, (
        f"{holder} keeps {kept - as_set:.0f} bytes more than with a set "
        f"(the array may take {array_bytes}): keys that miss the array "
        f"cost more than a set of them")


#: Bytes a committed block holds per transaction, ``stream: (budget, what
#: it held while a batch was a tuple of ``Transaction`` objects)``: a
#: saturated take is a ``range``, a byte array and shared values, so its
#: block costs little more than the block; an open-loop block keeps an
#: id array, a byte array of clients and an ``array('d')`` of creation
#: times, and a ``SET`` stream its payload strings besides; simulated
#: clients' blocks keep the same columns.  The budgets sit a little above
#: the readings when they were set (3.2, 13.9, 84.7, 14.6).
BLOCK_BYTES_PER_TX = {
    "saturated": (4.0, 185.4),
    "open-loop": (15.0, 209.8),
    "open-loop SET": (90.0, 272.4),
    "per-client": (16.0, 202.5),
}

#: Blocks taken for :func:`block_bytes_per_tx`.
BLOCKS = 200


def committed_chain(take, step) -> list:
    """:data:`BLOCKS` blocks a leader would build from ``take()`` (after
    ``step()`` each), hashed and sized as a run leaves them."""
    blocks, parent = [], genesis_block()
    for view in range(1, BLOCKS + 1):
        step()
        txs = take()
        if txs.n:
            parent = create_leaf(txs, "op", parent, view, 0)
            parent.hash, parent.wire_size()
            blocks.append(parent)
    return blocks


def saturated_blocks() -> list:
    source = SaturatedSource(Simulator(seed=1), payload_size=256)
    return committed_chain(lambda: source.take(BATCH, 5.0), lambda: None)


def open_loop_blocks(kv_keys: int) -> list:
    sim = Simulator(seed=1)
    queue = QueueSource()
    OpenLoopGenerator(sim, queue, rate_tps=60_000.0, payload_size=256,
                      kv_keys=kv_keys).start()
    return committed_chain(lambda: queue.take(BATCH, sim.now),
                           lambda: sim.run(until=sim.now + 5.0))


def per_client_blocks() -> list:
    sim = Simulator(seed=1)
    queue = QueueSource()
    simulated_clients(sim, queue)
    return committed_chain(lambda: queue.take(BATCH, sim.now),
                           lambda: sim.run(until=sim.now + 5.0))


BLOCK_STREAMS = {"saturated": saturated_blocks,
                 "open-loop": lambda: open_loop_blocks(0),
                 "open-loop SET": lambda: open_loop_blocks(64),
                 "per-client": per_client_blocks}


def block_bytes_per_tx(stream: str) -> float:
    """Bytes freed when the blocks of ``stream`` are dropped, per
    transaction they carried: what the blocks alone hold."""
    gc.collect()
    tracemalloc.start()
    try:
        blocks = BLOCK_STREAMS[stream]()
        txs = sum(block.txs.n for block in blocks)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del blocks
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert txs > 10_000
    return held / txs


@pytest.mark.parametrize("stream", sorted(BLOCK_BYTES_PER_TX))
def test_a_committed_block_holds_bytes_not_objects(stream):
    budget, _before = BLOCK_BYTES_PER_TX[stream]
    held = block_bytes_per_tx(stream)
    assert held <= budget, (
        f"a committed {stream} block holds {held:.1f} bytes per "
        f"transaction (budget {budget}): its batch is objects again")


#: Bytes the mempool's queue and the stream's client hop keep per
#: transaction queued or on the hop, ``stream: (budget, what they kept
#: while each arrival was a ``Transaction`` object)``: ids and clients in
#: int arrays of the smallest type, creation times an ``array('d')``, and
#: the open-loop stream's one shared payload; the soak stream's ``SET``
#: payloads are a list of their strings.  The budgets sit a little above
#: the readings when they were set (11.7 and 82.5); id and client columns
#: in 8-byte ints would add about 13 bytes.
QUEUED_BYTES_PER_TX = {
    "open-loop": (13.0, 206.8),
    "soak": (85.0, 300.1),
}


def backlog(stream: str):
    """A mempool and its stream (20 ms client hop) after 100 ms of
    arrivals at 60 000 tps and no take."""
    sim = Simulator(seed=1)
    queue = QueueSource()
    if stream == "open-loop":
        generator = OpenLoopGenerator(sim, queue, rate_tps=60_000.0,
                                      client_one_way_ms=20.0)
    else:
        spec = WorkloadSpec(base_rate_tps=60_000.0, arrival="lognormal",
                            lognormal_sigma=1.0, clients=50_000,
                            key_space=512, client_one_way_ms=20.0)
        generator = TrafficGenerator(sim, queue, spec)
    generator.start()
    sim.run(until=100.0)
    return queue, generator


def queued_bytes_per_tx(stream: str) -> float:
    """Bytes freed when the queue's and the hop's columns are dropped,
    per transaction they held."""
    gc.collect()
    tracemalloc.start()
    try:
        queue, generator = backlog(stream)
        txs = queue.pending() + generator._flying.n
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        queue._queue = type(queue._queue)()
        generator._flying = type(generator._flying)()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert txs > 5_000
    return held / txs


@pytest.mark.parametrize("stream", sorted(QUEUED_BYTES_PER_TX))
def test_a_queued_transaction_is_bytes_not_an_object(stream):
    budget, _before = QUEUED_BYTES_PER_TX[stream]
    held = queued_bytes_per_tx(stream)
    assert held <= budget, (
        f"the {stream} backlog holds {held:.1f} bytes per queued "
        f"transaction (budget {budget}): its columns are wider, or "
        f"objects again")
