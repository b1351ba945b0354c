"""A batch is minted slot for slot as one construction at a time.

``mint_batch`` builds ``Transaction`` objects column by column, with no
Python frame per transaction.  It is how open-loop arrivals were minted
while the mempool held objects; arrivals are columns from emission to
commit now, and ``mint_batch`` is kept here as the oracle that
``tests/property/test_tx_batch.py`` holds every landed batch to.  Every
transaction it returns must equal, slot for slot (``key`` and the
precomputed wire size included), the one ``Transaction(...)`` builds.
The transactions a ``SaturatedSource.take`` batch stands for are held
to the original list comprehension of constructor calls, kept below
verbatim as the oracle.  The single construction is pinned too (``repr``, ``==``,
``hash``, ``wire_size()``, ``key``), for empty, ASCII and multi-byte
payloads with the declared size above and below the text's byte length.

The open-loop block emission has its own fences:
``tests/property/test_arrival_stream.py`` (the event-per-arrival oracle)
and ``tests/property/test_draw_streams.py`` (the stdlib instants).
"""

from __future__ import annotations

from itertools import repeat
from operator import add
from typing import Iterable, Sequence

from hypothesis import given, settings, strategies as st

from repro.chain.transaction import TX_METADATA_BYTES, Transaction
from repro.client.workload import SaturatedSource
from repro.sim.loop import Simulator


def _fill(txs: "list[Transaction]", client_ids: Iterable,
          tx_ids: Iterable, payloads: Iterable, payload_sizes: Iterable,
          created_ats: Iterable) -> None:
    """Store five slots of ``txs`` and their ``key``, column by column
    (``any`` drains a ``map`` of ``setattr``, which returns ``None``);
    ``key`` shares its ints with the stored slots, as in ``__init__``."""
    any(map(setattr, txs, repeat("client_id"), client_ids))
    any(map(setattr, txs, repeat("tx_id"), tx_ids))
    any(map(setattr, txs, repeat("payload"), payloads))
    any(map(setattr, txs, repeat("payload_size"), payload_sizes))
    any(map(setattr, txs, repeat("created_at"), created_ats))
    any(map(setattr, txs, repeat("key"), zip(
        map(getattr, txs, repeat("client_id")),
        map(getattr, txs, repeat("tx_id")))))


def mint_batch(client_ids: Iterable[int], tx_ids: Sequence[int],
               payloads: Iterable[str], payload_size: int,
               created_ats: Iterable[float]) -> "list[Transaction]":
    """``[Transaction(c, i, p, payload_size, t) for c, i, p, t in zip(...)]``
    with no Python frame per transaction: the objects are allocated and
    each slot is stored column-wise by ``map`` over C functions.  One
    transaction per entry of ``tx_ids``; every other column is read once,
    so it may be an iterator (``repeat``).  Equal wire sizes share one
    int."""
    txs = list(map(object.__new__, repeat(Transaction, len(tx_ids))))
    _fill(txs, client_ids, tx_ids, payloads, repeat(payload_size),
          created_ats)
    # As in __init__: metadata + max(declared size, the text's bytes),
    # as max(declared wire size, the text's): every transaction whose text
    # fits its declared size shares the one ``wire`` int.
    wire = TX_METADATA_BYTES + payload_size
    any(map(setattr, txs, repeat("_wire_size"), map(
        max, repeat(wire), map(add, map(len, map(str.encode, map(
            getattr, txs, repeat("payload")))), repeat(TX_METADATA_BYTES)))))
    return txs


def slots(tx: Transaction) -> tuple:
    """Every slot's type and ``repr``: ``-0.0`` and ``0.0``, or ``1`` and
    ``True``, tell apart."""
    return (type(tx),) + tuple(
        (name, type(getattr(tx, name)), repr(getattr(tx, name)))
        for name in Transaction.__slots__)


def oracle_take(source: SaturatedSource, count: int,
                now: float) -> "list[Transaction]":
    """``SaturatedSource.take`` as it was written before batch minting."""
    created = max(0.0, now - source.client_one_way_ms)
    base = source.minted
    size = source.payload_size
    # Positional construction in a comprehension: a saturated run mints
    # hundreds of thousands of transactions, and keyword-argument
    # parsing plus per-iteration attribute bumps were measurable.
    txs = [Transaction(i % 64, i, "", size, created)
           for i in range(base + 1, base + count + 1)]
    source.minted = base + count
    return txs


#: Payloads whose byte length differs from their text length, or not.
payloads = st.one_of(st.just(""), st.text(max_size=24),
                     st.sampled_from(["SET k1 v2", "SET ключ ✓", "é" * 40]))

rows = st.lists(st.tuples(
    st.integers(min_value=-2 ** 40, max_value=2 ** 40),
    st.integers(min_value=0, max_value=2 ** 64 - 1),
    payloads,
    st.floats(allow_nan=False)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(rows=rows, payload_size=st.integers(min_value=-4, max_value=1024))
def test_mint_batch_equals_one_construction_per_row(rows, payload_size):
    expected = [Transaction(c, i, p, payload_size, t) for c, i, p, t in rows]
    columns = [list(column) for column in zip(*rows)] or [[], [], [], []]
    client_ids, tx_ids, texts, instants = columns
    minted = mint_batch(client_ids, tx_ids, texts, payload_size, instants)
    assert [slots(tx) for tx in minted] == [slots(tx) for tx in expected]
    # Every column but ``tx_ids`` is read once: an iterator does too.
    once = mint_batch(iter(client_ids), tuple(tx_ids), iter(texts),
                      payload_size, iter(instants))
    assert [slots(tx) for tx in once] == [slots(tx) for tx in expected]
    # ``key`` shares its ints with the slots, as ``__init__``'s does.
    assert all(tx.key[0] is tx.client_id and tx.key[1] is tx.tx_id
               for tx in minted)


@settings(max_examples=200, deadline=None)
@given(minted=st.integers(min_value=0, max_value=2 ** 40),
       count=st.sampled_from([0, 1, 400]),
       payload_size=st.integers(min_value=0, max_value=1024),
       now=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
       hop=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_a_saturated_take_equals_the_oracle_slot_for_slot(
        minted, count, payload_size, now, hop):
    sources = [SaturatedSource(Simulator(seed=1), payload_size, hop)
               for _ in range(2)]
    for source in sources:
        source.minted = minted
    taken = list(sources[0].take(count, now))
    expected = oracle_take(sources[1], count, now)
    assert [slots(tx) for tx in taken] == [slots(tx) for tx in expected]
    assert sources[0].minted == sources[1].minted == minted + count


#: ``(payload, payload_size, wire size)``: empty, ASCII and multi-byte
#: text, the declared size above and below the text's byte length.
SINGLES = [
    ("", 0, TX_METADATA_BYTES),
    ("", 256, TX_METADATA_BYTES + 256),
    ("SET k1 v2", 0, TX_METADATA_BYTES + 9),
    ("SET k1 v2", 4, TX_METADATA_BYTES + 9),
    ("SET k1 v2", 256, TX_METADATA_BYTES + 256),
    ("SET ключ ✓", 0, TX_METADATA_BYTES + 16),
    ("SET ключ ✓", 10, TX_METADATA_BYTES + 16),
    ("SET ключ ✓", 17, TX_METADATA_BYTES + 17),
]


def test_a_single_construction_is_pinned():
    for payload, size, wire in SINGLES:
        tx = Transaction(3, 7, payload, size, 1.5)
        assert tx.key == (3, 7)
        assert tx.wire_size() == tx._wire_size == wire
        assert repr(tx) == (
            f"Transaction(client_id=3, tx_id=7, payload={payload!r}, "
            f"payload_size={size}, created_at=1.5)")
        assert hash(tx) == hash((3, 7, payload, size, 1.5))
        twin = Transaction(3, 7, payload, size, 1.5)
        assert tx == twin and tx is not twin
        assert tx != Transaction(3, 7, payload, size, 2.5)
        assert tx != Transaction(3, 8, payload, size, 1.5)
        assert tx != Transaction(3, 7, payload + "x", size, 1.5)
        assert tx != Transaction(3, 7, payload, size + 1, 1.5)
        assert tx.__eq__(tx.key) is NotImplemented
    assert Transaction(0, 1) == Transaction(0, 1, "", 0, 0.0)
    assert repr(Transaction(0, 1)) == (
        "Transaction(client_id=0, tx_id=1, payload='', payload_size=0, "
        "created_at=0.0)")
