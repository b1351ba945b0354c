"""A taken batch answers as the list of ``Transaction`` objects it stands for.

How a batch is held from ``take`` to the stores is a host-memory choice
only, so every batch a source hands out is held here to the list of
``Transaction(...)`` constructions it stands for (the oracle): its
length and truth, its transactions in order (every slot, ``==`` and
``hash``), their keys, its digest (``tx_list_digest`` against the
``digest_of`` reference), the wire size of a block that carries it, that
block's equality and ``hash`` against a block built from the oracle, the
collector's latency samples, the monitor's exactly-once audit and the
KV state machine's root.

The shapes: a saturated mint; an open-loop mint with and without ``SET``
payloads; transactions submitted one at a time by a single client;
ids that are not ints (``True``, floats, ids past 2**64, negative ids);
an empty batch; a batch handed back by ``requeue`` and taken again; and a
write larger than its declared payload size.

:func:`checked_batches` makes every ``take`` of a saturated source or a
mempool check what it returns against the oracle as it goes;
``tests/integration/test_event_core_golden.py`` runs each pinned golden
run under it.
"""

from __future__ import annotations

import contextlib
import hashlib
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.block import create_leaf, genesis_block
from repro.chain.execution import KVStateMachine
from repro.chain.transaction import (EMPTY_BATCH, Transaction, TxBatch,
                                     tx_list_digest, tx_list_encoding)
from repro.client.workload import (OpenLoopGenerator, QueueSource,
                                   SaturatedSource)
from repro.consensus.base import ReplicaBase
from repro.crypto.hashing import digest_of
from repro.errors import StateMachineError
from repro.harness.invariants import InvariantMonitor
from repro.harness.metrics import MetricsCollector
from repro.net.message import HASH_BYTES
from repro.sim.loop import Simulator
from tests.property.test_transaction_mint import mint_batch

#: A block's wire size beyond its transactions: op, parent hash, view,
#: height and proposer.
HEADER_BYTES = 2 * HASH_BYTES + 8 + 8 + 4


def slots(tx: Transaction) -> tuple:
    """Every slot's type and ``repr``: ``-0.0`` and ``0.0``, or ``1`` and
    ``True``, tell apart."""
    return (type(tx),) + tuple(
        (name, type(getattr(tx, name)), repr(getattr(tx, name)))
        for name in Transaction.__slots__)


def oracle_digest(txs) -> str:
    """``tx_list_digest`` over the objects, one at a time:
    ``digest_of([t.key + (t.payload,) for t in txs])``."""
    encoded = b"".join([b"l3:i%di%ds%d:%s" % (
        t.client_id, t.tx_id, len(t.payload.encode()), t.payload.encode())
        for t in txs])
    return hashlib.sha256(b"l%d:%s" % (len(txs), encoded)).hexdigest()


def block_of(taken):
    """The block a leader builds on genesis from what ``take`` returned."""
    return create_leaf(taken, "op", genesis_block(), 1, 0)


def replied_samples(txs, now: float, hop: float) -> list:
    """The collector's samples of one first report: the first occurrence
    of each key, in order."""
    seen, samples = set(), []
    for tx in txs:
        if tx.key not in seen:
            seen.add(tx.key)
            samples.append(now + hop - tx.created_at)
    return samples


def apply_outcome(txs) -> tuple:
    """What a fresh KV machine ends in after the batch: its root and what
    it applied, or the error it refused a write with."""
    machine = KVStateMachine()
    try:
        machine.apply_batch(txs)
        error = None
    except StateMachineError as exc:
        error = str(exc)
    return machine.state_root, machine.applied, error


def audit(block, node: int) -> list:
    """The monitor's exactly-once verdicts on committing ``block`` twice
    over at ``node`` (the second commit repeats every key)."""
    monitor = InvariantMonitor()
    monitor.on_commit(node, block, 0.0)
    twice = create_leaf(block.txs, "again", block, 2, 0)
    monitor.on_commit(node, twice, 1.0)
    return [v.message.replace(twice.hash[:12], "<again>")
            for v in monitor.violations if v.invariant == "exactly-once-apply"]


def check_batch(taken, oracle: list, deep: bool = True) -> None:
    """``taken`` answers as ``oracle`` does to every consumer;
    ``deep`` adds the collector, the monitor and the KV machine."""
    assert type(taken) is TxBatch
    assert taken.n == len(taken) == len(oracle)
    assert bool(taken) == bool(oracle)
    objects = list(taken)
    assert [slots(tx) for tx in objects] == [slots(tx) for tx in oracle]
    assert objects == oracle
    assert [hash(tx) for tx in objects] == [hash(tx) for tx in oracle]
    assert [tx.key for tx in taken] == [tx.key for tx in oracle]
    assert [tx.wire_size() for tx in taken] == \
        [tx.wire_size() for tx in oracle]
    assert tx_list_digest(taken) == oracle_digest(oracle) == \
        digest_of([t.key + (t.payload,) for t in oracle])
    # The leader's one pass also sums the wire size where the payloads
    # are a column (its payload lengths are the digest's own).
    wire = tx_list_encoding(taken)[1]
    assert (wire is None) == (taken.payloads.__class__ is str)
    assert wire in (None, sum(tx.wire_size() for tx in oracle))
    block, twin = block_of(taken), block_of(tuple(oracle))
    assert block.wire_size() == HEADER_BYTES + sum(
        tx.wire_size() for tx in oracle)
    assert block == twin and hash(block) == hash(twin)
    assert block.hash == twin.hash
    if not deep:
        return
    collector = MetricsCollector(reply_one_way_ms=0.5)
    collector.on_replies(0, block, 10.0)
    assert list(collector.e2e_latency.samples) == \
        replied_samples(oracle, 10.0, 0.5)
    assert audit(block, 0) == audit(twin, 0)
    assert apply_outcome(taken) == apply_outcome(oracle)


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------
def oracle_saturated(source: SaturatedSource, count: int,
                     now: float) -> "list[Transaction]":
    """What ``SaturatedSource.take`` stands for, from its state before
    the take (which this does not advance)."""
    created = max(0.0, now - source.client_one_way_ms)
    base = source.minted
    return [Transaction(i % 64, i, "", source.payload_size, created)
            for i in range(base + 1, base + count + 1)]


@settings(max_examples=60, deadline=None)
@given(minted=st.integers(min_value=0, max_value=2 ** 40),
       count=st.sampled_from([0, 1, 2, 400]),
       payload_size=st.integers(min_value=-4, max_value=1024),
       now=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
       hop=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_a_saturated_mint_answers_as_its_transactions(
        minted, count, payload_size, now, hop):
    source = SaturatedSource(Simulator(seed=1), payload_size, hop)
    source.minted = minted
    oracle = oracle_saturated(source, count, now)
    check_batch(source.take(count, now), oracle)
    assert source.minted == minted + count


def queued(queue: QueueSource) -> list:
    """The objects ``queue`` stands for, oldest first, as
    :func:`checked_batches` keeps them."""
    return queue.__dict__.setdefault("oracle", [])


def test_an_open_loop_landing_answers_as_its_transactions():
    for kv_keys in (0, 8):
        with checked_batches(deep=True):
            sim = Simulator(seed=3)
            queue = QueueSource()
            OpenLoopGenerator(sim, queue, rate_tps=40_000.0,
                              payload_size=64, kv_keys=kv_keys).start()
            taken = []
            for step, count in enumerate([1, 400, 7, 0, 400, 1 << 20]):
                sim.run(until=5.0 * (step + 1))
                taken += queue.take(count, sim.now)
        assert len(taken) > 400
        if kv_keys:
            assert all(tx.payload.startswith("SET k") for tx in taken)


def test_single_client_submits_answer_as_their_transactions():
    queue = QueueSource()
    oracle = [Transaction(7, k, f"SET a{k % 3} v{k}", 16, 0.25 * k)
              for k in range(1, 40)]
    for tx in oracle:
        assert queue.submit(tx)
    check_batch(queue.take(25, 12.0), oracle[:25])
    check_batch(queue.take(25, 13.0), oracle[25:])


#: Ids no slot array holds: negative, past 2**32, past 2**63 (one array
#: holds the negative ones, another those past 2**63).
WIDE_IDS = ([(-1, -7), (2 ** 40, 1), (0, 2 ** 32), (5, 2 ** 63 - 1)],
            [(3, 2 ** 63 + 5), (2 ** 64 - 1, 0), (1, 1)])


def test_wide_ids_answer_as_their_transactions():
    queue = QueueSource()
    for keys in WIDE_IDS:
        oracle = [Transaction(c, i, "", 4, 1.0) for c, i in keys]
        for tx in oracle:
            assert queue.submit(tx)
        check_batch(queue.take(1 << 10, 2.0), oracle)


#: Ids that are not ints (``True`` and ``2.0`` are the keys ``1`` and
#: ``2`` to a ``set``), or that no 64-bit array holds.
REFUSED_IDS = [(True, 2), (False, 2.0), (0, 2.5), (5, True), ("7", 1),
               (None, 1), (3, 2 ** 64 + 5), (2 ** 70, 1), (-2 ** 63 - 1, 1)]


def test_ids_that_are_not_64_bit_ints_are_refused():
    for client, tx_id in REFUSED_IDS:
        with pytest.raises(ValueError):
            Transaction(client, tx_id)
        row = SimpleNamespace(client_id=client, tx_id=tx_id, payload="",
                              payload_size=0, created_at=0.0)
        with pytest.raises(ValueError):
            TxBatch.of([row])
        with pytest.raises(ValueError):
            TxBatch((tx_id,), (client,), "", 0, 0.0)
    # Each fits a 64-bit array, but no one array holds both.
    with pytest.raises(ValueError):
        TxBatch.of([Transaction(-1, 1), Transaction(2 ** 63, 2)])


def test_an_empty_batch_answers_as_no_transactions():
    check_batch(SaturatedSource(Simulator(seed=1)).take(0, 5.0), [])
    check_batch(QueueSource().take(400, 5.0), [])
    queue = QueueSource()
    queue.submit(Transaction(1, 1))
    check_batch(queue.take(0, 5.0), [])
    check_batch(queue.take(-3, 5.0), [])


def test_a_requeued_batch_is_taken_again_as_it_was():
    sim = Simulator(seed=5)
    queue = QueueSource()
    OpenLoopGenerator(sim, queue, rate_tps=40_000.0, kv_keys=4).start()
    sim.run(until=10.0)
    batch = queue.take(50, sim.now)
    oracle = list(batch)
    queue.requeue(batch)
    again = queue.take(50, sim.now)
    check_batch(again, oracle)
    # A requeued saturated batch goes to the head of a mempool too.
    minted = SaturatedSource(sim, 32).take(3, sim.now)
    queue.requeue(minted)
    check_batch(queue.take(3, sim.now), list(minted))
    # So does a submitted one, behind what is queued.
    with checked_batches(deep=True):
        queue = QueueSource()
        for k in range(1, 9):
            queue.submit(Transaction(9, k, f"SET a v{k}", 16 * (k % 2),
                                     k / 2))
        first = queue.take(3, 9.0)
        queue.submit(Transaction(9, 20, "", 0, 20.0))
        queue.requeue(first)
        queue.requeue(minted)
        queue.take(4, 21.0)
        queue.take(100, 21.0)


def test_an_oversize_write_answers_as_its_transaction():
    queue = QueueSource()
    oracle = [Transaction(1, 1, "SET a b", 16, 0.0),
              Transaction(1, 2, "SET big " + "x" * 5000, 16, 0.0),
              Transaction(1, 3, "SET c é" * 4, 2, 0.5)]
    for tx in oracle:
        queue.submit(tx)
    batch = queue.take(3, 1.0)
    check_batch(batch, oracle)
    assert apply_outcome(batch)[2] is not None


@pytest.mark.parametrize("payloads", ["column", "shared"])
def test_a_proposal_sizes_its_block_from_the_digest_pass(payloads):
    """A leader's block takes its wire size from the pass that digested
    its batch where the payloads are a column, so ``TxBatch.wire_size``
    never encodes them again; a shared payload's block sizes itself."""
    oracle = [Transaction(1, i, f"SET k{i % 3} {'é' * i}" if payloads ==
                          "column" else "SET k v", (0, 4, 40)[i % 3], 0.5)
              for i in range(9)]
    txs = TxBatch.of(oracle)
    node = SimpleNamespace(
        make_batch=lambda: txs, node_id=0, charge=lambda cost: None,
        _batch_timer=SimpleNamespace(cancel=lambda: None),
        config=SimpleNamespace(costs=SimpleNamespace(exec_cost=float)))
    with mock.patch.object(TxBatch, "wire_size", autospec=True,
                           side_effect=TxBatch.wire_size) as sized:
        block = ReplicaBase._build_block(node, genesis_block(), 1, None)
        assert block.wire_size() == HEADER_BYTES + sum(
            tx.wire_size() for tx in oracle)
    assert sized.call_count == (payloads == "shared")
    assert block.batch_digest == oracle_digest(oracle)


rows = st.lists(st.tuples(
    st.integers(min_value=0, max_value=70),
    st.integers(min_value=0, max_value=2 ** 34),
    st.sampled_from(["", "SET k1 v2", "SET ключ ✓", "noop", "SET k " + "é" * 9]),
    st.sampled_from([0, 8, 256]),
    st.sampled_from([0.0, 1.5, 7.25, -0.0])), max_size=30)


@settings(max_examples=100, deadline=None)
@given(rows=rows, chunks=st.lists(st.integers(-1, 12), min_size=1,
                                  max_size=6))
def test_any_submitted_stream_answers_as_its_transactions(rows, chunks):
    with checked_batches(deep=True):
        queue = QueueSource()
        for c, i, payload, size, at in rows:
            queue.submit(Transaction(c, i, payload, size, at))
        for count in chunks:
            queue.take(count, 20.0)


@settings(max_examples=100, deadline=None)
@given(rows=rows, cut=st.tuples(st.integers(-35, 35), st.integers(-35, 35),
                                st.sampled_from([None, 1, 2, -1, -3])))
def test_a_batch_indexes_slices_and_compares_as_its_tuple(rows, cut):
    oracle = [Transaction(c, i, payload, size, at)
              for c, i, payload, size, at in rows]
    batch = TxBatch.of(oracle)
    assert TxBatch.of(batch) is batch
    part = slice(*cut)
    check_batch(batch[part], oracle[part], deep=False)
    for index in range(-len(oracle), len(oracle)):
        assert slots(batch[index]) == slots(oracle[index])
    again = TxBatch.of(list(batch))
    assert again == batch and hash(again) == hash(batch)
    assert list(again.keys()) == [tx.key for tx in oracle]
    assert list(batch.column("created_at")) == \
        [tx.created_at for tx in oracle]
    if oracle:
        other = TxBatch.of(oracle[:-1] + [Transaction(
            oracle[-1].client_id, oracle[-1].tx_id, oracle[-1].payload + "x",
            oracle[-1].payload_size, oracle[-1].created_at)])
        assert other != batch
    assert batch.__eq__(oracle) is NotImplemented


def test_a_saturated_take_holds_a_few_objects_whatever_its_size():
    """Its ids are a ``range``, its clients a byte array, and its payload,
    size, creation time and wire size one value each."""
    batch = SaturatedSource(Simulator(seed=1), 256).take(400, 5.0)
    assert type(batch.tx_ids) is range and batch.n == 400
    assert batch.client_ids.typecode == "B"
    assert (batch.payloads, batch.payload_sizes, batch.created_at) == \
        ("", 256, 4.95)
    assert batch.wire_size() == 400 * 264
    assert SaturatedSource(Simulator(seed=1)).take(0, 1.0).n == 0
    assert QueueSource().take(5, 1.0) is EMPTY_BATCH


# ----------------------------------------------------------------------
# Every take of a golden run
# ----------------------------------------------------------------------
@contextlib.contextmanager
def checked_batches(deep: bool = False):
    """Every ``take`` of a saturated source or a mempool inside checks
    what it returns against the transactions it stands for (``deep``
    adds the collector, the monitor and the KV machine).  A mempool's
    are kept beside it (:func:`queued`): what ``_admit`` let in of a
    landed batch, minted by ``mint_batch`` (the keys it marked seen),
    each transaction ``submit`` took, and a requeued batch's objects at
    the head."""
    saturated, admit = SaturatedSource.take, QueueSource._admit
    submit, take = QueueSource.submit, QueueSource.take
    requeue, reset = QueueSource.requeue, QueueSource.reset

    def take_saturated(self, count, now):
        oracle = oracle_saturated(self, count, now)
        batch = saturated(self, count, now)
        check_batch(batch, oracle, deep)
        return batch

    def admit_minted(self, count, *columns):
        batch = TxBatch(*columns)
        fresh = [key not in self._seen for key in batch.keys()]
        admitted = admit(self, count, *columns)
        assert batch.n == count and type(batch.payload_sizes) is int
        minted = mint_batch(batch.client_ids, batch.tx_ids,
                            batch.column("payloads"), batch.payload_sizes,
                            batch.column("created_at"))
        queued(self).extend(tx for tx, new in zip(minted, fresh)
                            if new and tx.key in self._seen)
        return admitted

    def submit_kept(self, tx):
        self.catch_up()
        if not submit(self, tx):
            return False
        queued(self).append(tx)
        return True

    def take_queued(self, count, now):
        oracle = queued(self)
        assert self.pending() == len(oracle)
        expected = oracle[:max(count, 0)]
        batch = take(self, count, now)
        del oracle[:len(expected)]
        check_batch(batch, expected, deep)
        return batch

    def requeue_kept(self, txs):
        requeue(self, txs)
        queued(self)[:0] = list(txs)

    def reset_kept(self):
        reset(self)
        queued(self).clear()

    with mock.patch.object(SaturatedSource, "take", take_saturated), \
            mock.patch.object(QueueSource, "_admit", admit_minted), \
            mock.patch.object(QueueSource, "submit", submit_kept), \
            mock.patch.object(QueueSource, "take", take_queued), \
            mock.patch.object(QueueSource, "requeue", requeue_kept), \
            mock.patch.object(QueueSource, "reset", reset_kept):
        yield
