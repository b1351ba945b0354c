"""Client transactions.

Per paper Sec. 5.1, each transaction carries a client id and transaction id
(8 B of metadata) plus a payload of 0/256/512 B.  The payload is opaque to
consensus; the KV state machine interprets payloads of the form
``"SET <key> <value>"`` and treats anything else as a no-op write of its
own digest (so execution results are still deterministic functions of the
payload).

Transactions are columns from arrival to commit: the open-loop
generators put arrivals on the client hop as columns, a mempool
(``client/workload.py::QueueSource``) queues them as columns, and a batch
that leaves a source is a :class:`TxBatch` (what ``take``,
``create_leaf`` and ``Block.txs`` carry), so a run keeps a few bytes per
transaction, not an object.  A ``Transaction`` is one client request as
an object: what a client or a router sends, and what iterating a batch
makes.  It is a hand-rolled ``__slots__`` type (a dataclass's generated
``__init__`` was a measurable slice of profiles), immutable by
convention: ``key`` and the wire size are computed at construction.
Ids are ints at the boundary: one that is not an ``int`` a 64-bit array
holds is refused with ``ValueError`` where a ``Transaction``, a mempool
row or a batch is made.

What a run remembers per transaction key to its end (the mempool's dedup
keys, the first replies, the keys each node applied, a store's committed
keys) is a :class:`TxKeySet`: the answers of a ``set``, at a few bytes a
key.
"""

from __future__ import annotations

import hashlib
from array import array
from itertools import repeat
from operator import attrgetter, is_
from typing import Iterable, Optional, Sequence

#: Metadata bytes per transaction (client id + transaction id), Sec. 5.1.
TX_METADATA_BYTES = 8

#: Ids are ints a 64-bit array holds, signed or unsigned.
ID_MIN, ID_END = -(1 << 63), 1 << 64


class Transaction:
    """One client transaction."""

    __slots__ = ("client_id", "tx_id", "payload", "payload_size",
                 "created_at", "key", "_wire_size")

    def __init__(self, client_id: int, tx_id: int, payload: str = "",
                 payload_size: int = 0, created_at: float = 0.0) -> None:
        if client_id.__class__ is not int or tx_id.__class__ is not int \
                or not ID_MIN <= client_id < ID_END \
                or not ID_MIN <= tx_id < ID_END:
            raise ValueError(f"transaction ids must be 64-bit ints, got "
                             f"({client_id!r}, {tx_id!r})")
        self.client_id = client_id
        self.tx_id = tx_id
        self.payload = payload
        self.payload_size = payload_size
        self.created_at = created_at
        self.key = (client_id, tx_id)
        text_bytes = len(payload.encode()) if payload else 0
        self._wire_size = TX_METADATA_BYTES + (
            payload_size if payload_size > text_bytes else text_bytes)

    def wire_size(self) -> int:
        """Serialized size: metadata + max(declared payload size, text)."""
        return self._wire_size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transaction):
            return NotImplemented
        return (self.client_id == other.client_id
                and self.tx_id == other.tx_id
                and self.payload == other.payload
                and self.payload_size == other.payload_size
                and self.created_at == other.created_at)

    def __hash__(self) -> int:
        return hash((self.client_id, self.tx_id, self.payload,
                     self.payload_size, self.created_at))

    def __repr__(self) -> str:
        return (f"Transaction(client_id={self.client_id!r}, "
                f"tx_id={self.tx_id!r}, payload={self.payload!r}, "
                f"payload_size={self.payload_size!r}, "
                f"created_at={self.created_at!r})")


def tx_wire_size(payload_size: int) -> int:
    """Wire size of a transaction with an opaque payload of ``payload_size``."""
    return TX_METADATA_BYTES + payload_size


#: The types a :class:`TxBatch` column comes in when it holds one entry
#: per transaction; a value of any other type stands for the whole batch.
COLUMN_TYPES = frozenset((list, tuple, array, range))

#: The types a :class:`TxBatch` id column comes in.
ID_COLUMN_TYPES = frozenset((array, range))

#: Integer array codes, narrowest first.
_CODES = "BHIQq"

#: A transaction's fields, in :class:`TxBatch`'s column order.
_rows = attrgetter("tx_id", "client_id", "payload", "payload_size",
                   "created_at")


def append_ints(column: array, values: Sequence[int]) -> array:
    """``column`` with the ints ``values`` appended: in place while its
    type holds them, else as a new array of the narrowest type that holds
    both.  ``ValueError`` if no 64-bit type does."""
    try:
        column += array(column.typecode, values)
        return column
    except OverflowError:
        pass
    for code in _CODES:
        try:
            wider = array(code, column)
            wider += array(code, values)
            return wider
        except OverflowError:
            pass
    raise ValueError("ids must be ints that one 64-bit array holds")


class TxBatch:
    """An immutable batch of transactions, held as columns.

    ``tx_ids`` and ``client_ids`` are int ``array`` s or ``range`` s
    (anything else is refused with ``ValueError``).  ``payloads``,
    ``payload_sizes`` and ``created_at`` each hold one entry per
    transaction (a list or a tuple; times an ``array('d')``), or one
    value for all of them (a type not in :data:`COLUMN_TYPES`;
    :meth:`column` reads either as one entry per transaction).  ``n`` is
    the number of transactions, an attribute so that a hot path pays no
    ``len`` call; wire sizes are derived (:meth:`wire_size`).

    A batch stands for the ``Transaction`` objects iterating it makes,
    and answers ``len``, ``==``, indexing and slicing as the tuple of
    them would; its consumers read the columns with no Python frame per
    transaction.  Nothing may write to a batch once it is built.  Pinned
    to the objects it stands for by tests/property/test_tx_batch.py.
    """

    __slots__ = ("n", "tx_ids", "client_ids", "payloads", "payload_sizes",
                 "created_at")

    def __init__(self, tx_ids: Sequence, client_ids: Sequence, payloads,
                 payload_sizes, created_at) -> None:
        if tx_ids.__class__ not in ID_COLUMN_TYPES or \
                client_ids.__class__ not in ID_COLUMN_TYPES:
            raise ValueError("a batch's ids are an int array or a range")
        self.n = len(tx_ids)
        self.tx_ids = tx_ids
        self.client_ids = client_ids
        self.payloads = payloads
        self.payload_sizes = payload_sizes
        self.created_at = created_at

    @classmethod
    def of(cls, txs: Iterable[Transaction]) -> "TxBatch":
        """The batch of ``txs``, in order (a batch is returned as it is);
        a value every transaction holds by identity is stored once.  Only
        ``create_leaf`` and ``KVStateMachine.apply_batch`` convert, for
        the host-speed probes in benchmarks/perf/probes.py."""
        if txs.__class__ is cls:
            return txs
        rows = list(map(_rows, txs))
        if not rows:
            return EMPTY_BATCH
        ids, clients, payloads, sizes, created = zip(*rows)
        if not set(map(type, ids + clients)) <= {int}:   # True, 2.0
            raise ValueError("ids must be ints")
        # A value every transaction holds as that very object stands for
        # all of them (its type and sign kept); else a tuple, and times
        # that are all floats an ``array('d')``.
        payloads, sizes, created = [
            column[0] if all(map(is_, column, repeat(column[0]))) else column
            for column in (payloads, sizes, created)]
        if created.__class__ is tuple and set(map(type, created)) == {float}:
            created = array("d", created)
        return cls(append_ints(array("B"), ids),
                   append_ints(array("B"), clients), payloads, sizes, created)

    def column(self, name: str) -> Iterable:
        """The column ``name``, one entry per transaction."""
        values = getattr(self, name)
        if values.__class__ in COLUMN_TYPES:
            return values
        return repeat(values, self.n)

    def columns(self) -> tuple:
        """The five columns, in the constructor's order."""
        return (self.tx_ids, self.client_ids, self.payloads,
                self.payload_sizes, self.created_at)

    def keys(self) -> Iterable:
        """The transactions' keys ``(client_id, tx_id)``, in order."""
        return zip(self.client_ids, self.tx_ids)

    def wire_size(self) -> int:
        """The transactions' wire sizes, summed: each is metadata +
        max(its declared size, its text's bytes), as ``Transaction``
        makes it; a shared payload is encoded once."""
        payloads, sizes, n = self.payloads, self.payload_sizes, self.n
        if payloads.__class__ is str:
            text = len(payloads.encode()) if payloads else 0
            if sizes.__class__ not in COLUMN_TYPES:
                return n * (TX_METADATA_BYTES +
                            (sizes if sizes > text else text))
            texts = repeat(text, n)
        else:
            texts = map(len, map(str.encode, payloads))
        if sizes.__class__ not in COLUMN_TYPES:
            sizes = repeat(sizes, n)
        return TX_METADATA_BYTES * n + sum(map(max, sizes, texts))

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        column = self.column
        return map(Transaction, self.client_ids, self.tx_ids,
                   column("payloads"), column("payload_sizes"),
                   column("created_at"))

    def __getitem__(self, index):
        cut = [values[index] if values.__class__ in COLUMN_TYPES else values
               for values in self.columns()]
        if index.__class__ is slice:
            return TxBatch(*cut)
        tx_id, client_id, payload, payload_size, created_at = cut
        return Transaction(client_id, tx_id, payload, payload_size,
                           created_at)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TxBatch:
            return NotImplemented
        return self.n == other.n and all(
            list(self.column(name)) == list(other.column(name))
            for name in _COLUMNS)

    def __hash__(self) -> int:
        return hash((tuple(self.tx_ids), tuple(self.client_ids)))

    def __repr__(self) -> str:
        return f"TxBatch(n={self.n}, tx_ids={self.tx_ids!r})"


#: :class:`TxBatch`'s columns, in its constructor's order.
_COLUMNS = TxBatch.__slots__[1:]

#: The batch of no transactions.
EMPTY_BATCH = TxBatch(range(0), range(0), "", 0, 0.0)


#: Slots a :class:`TxKeySet` may hold per key it holds (beyond
#: :data:`MIN_SLOTS`): ids sparser than this go to its set, so its array
#: costs at most ``4 * SLOTS_PER_KEY`` bytes a key (twice that tagged).
SLOTS_PER_KEY = 8
#: Slots a :class:`TxKeySet` starts with.
MIN_SLOTS = 1024
#: A slot is an unsigned 32-bit int holding its key's client; all ones is
#: a free slot, so clients below it fit a slot.  A tag is below it too.
FREE = (1 << 32) - 1
_FREE_BYTES = array("I", [FREE]).tobytes()


class TxKeySet:
    """An exact set of transaction keys ``(client_id, tx_id)``, a few
    bytes a key.

    It answers ``in``, ``add`` and ``len`` as a ``set`` of the same keys
    would.  A key is held in exactly one of two places:

    * ``_slots``, an ``array('I')`` indexed by ``tx_id`` that holds the
      key's client (:data:`FREE` if none): ids of one counter, whatever
      client each names (the workload generators, a router), 4 bytes a
      key, and a quarter more while the array has room to grow into.  It
      grows only while it holds at most :data:`SLOTS_PER_KEY` slots a
      key, so sparse ids cost at most ``4 * SLOTS_PER_KEY`` bytes a key;
    * ``_rest``, a ``set`` of every other key: a key whose slot another
      client holds (per-client counters, as several simulated clients
      send), negative or huge ids and clients, and ids too sparse for
      the array.  Those keys cost what a set of them costs.

    ``tagged=True`` also keeps, per key, the int it was added with
    (:meth:`tag_of`, below :data:`FREE`): 4 more bytes a slot, and
    ``_rest`` is a dict from key to tag.  :meth:`add` makes no call
    unless the array grows, and :meth:`add_new` none per key.  Keys are
    pairs of ints (ids are ints at the boundary).
    """

    __slots__ = ("_slots", "_tags", "_size", "_count", "_rest")

    def __init__(self, tagged: bool = False) -> None:
        self._tags: Optional[array] = array("I") if tagged else None
        self._rest = {} if tagged else set()
        self.clear()

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for tx_id, client in enumerate(self._slots):
            if client != FREE:
                yield (client, tx_id)
        yield from self._rest

    def __contains__(self, key) -> bool:
        client, tx_id = key
        if 0 <= client < FREE and 0 <= tx_id < self._size and \
                self._slots[tx_id] == client:
            return True
        return key in self._rest

    def add(self, key, tag: int = 0) -> bool:
        """Add ``key`` (with ``tag``); whether it was not held before."""
        client, tx_id = key
        slot = 0 <= client < FREE and tx_id >= 0
        vacant = False
        if slot and tx_id < self._size:
            held = self._slots[tx_id]
            if held == client:
                return False
            vacant = held == FREE
        rest = self._rest
        if rest and key in rest:
            return False
        if vacant or slot and tx_id >= self._size and self._room(tx_id):
            self._slots[tx_id] = client
            if self._tags is not None:
                self._tags[tx_id] = tag
        elif self._tags is None:
            rest.add(key)
        else:
            rest[key] = tag
        self._count += 1
        return True

    def add_new(self, client_ids: Sequence, tx_ids: Sequence,
                tag: int = 0) -> bool:
        """Add the keys ``zip(client_ids, tx_ids)`` (two columns, as a
        :class:`TxBatch` holds them) if none is held and no two are
        equal; whether it did (else nothing is added).

        One loop with no call in it stores each key in its free slot, as
        every minted batch and every block taken from a mempool allows.
        A key no slot can hold fails the store or the subscript, a held
        key or a repeated id finds its slot taken, and what was stored
        is taken back; an id past the array grows it once.  A batch that
        does not fit free slots goes to ``_rest`` whole
        (:meth:`_add_new_rest`).
        """
        count = len(tx_ids)
        slots, tags, rest = self._slots, self._tags, self._rest
        grown = False
        while True:
            done, beyond = 0, False
            try:
                for client, tx_id in zip(client_ids, tx_ids):
                    if tx_id < 0 or client == FREE or slots[tx_id] != FREE \
                            or rest and (client, tx_id) in rest:
                        break
                    if tags is not None:
                        tags[tx_id] = tag
                    slots[tx_id] = client
                    done += 1
                else:
                    self._count += count
                    return True
            except IndexError:
                beyond = True
            except OverflowError:       # a client no slot holds
                pass
            for tx_id in tx_ids[:done]:
                slots[tx_id] = FREE
            if not beyond or grown:
                return self._add_new_rest(client_ids, tx_ids, tag)
            # Past the array: grow to the batch's last id (its highest,
            # when ids rise), or else to its highest.
            top = tx_ids[-1]
            if top < self._size:
                top = max(tx_ids)
            grown = self._room(top, count)
            if not grown:
                return self._add_new_rest(client_ids, tx_ids, tag)

    def _add_new_rest(self, client_ids: Sequence, tx_ids: Sequence,
                      tag: int) -> bool:
        """:meth:`add_new` of a batch that does not fit free slots: into
        ``_rest`` whole if no key is held and no two are equal, checked
        in a loop with no call."""
        keys = list(zip(client_ids, tx_ids))
        if len(set(keys)) < len(keys):
            return False
        slots, size = self._slots, self._size
        for client, tx_id in keys:
            if 0 <= client < FREE and 0 <= tx_id < size and \
                    slots[tx_id] == client:
                return False
        rest = self._rest
        if self._tags is None:
            if not rest.isdisjoint(keys):
                return False
            rest.update(keys)
        else:
            if not rest.keys().isdisjoint(keys):
                return False
            rest.update(zip(keys, repeat(tag)))
        self._count += len(keys)
        return True

    def tag_of(self, key) -> int:
        """The tag ``key`` was added with (it must be held)."""
        if self._tags is None:
            return 0
        client, tx_id = key
        if 0 <= client < FREE and 0 <= tx_id < self._size and \
                self._slots[tx_id] == client:
            return self._tags[tx_id]
        return self._rest.get(key, 0)

    def _room(self, tx_id: int, adding: int = 1) -> bool:
        """Grow the slots to cover ``tx_id`` if they stay dense enough
        with ``adding`` more keys; whether they cover it."""
        limit = SLOTS_PER_KEY * (self._count + adding) + MIN_SLOTS
        if tx_id >= limit:
            return False
        size = self._size + self._size // 4     # up to the limit
        if size <= tx_id:
            size = tx_id + 1
        if size > limit:
            size = limit
        blank = array("I", _FREE_BYTES * (size - self._size))
        self._slots += blank
        if self._tags is not None:
            self._tags += blank
        self._size = size
        return True

    def clear(self) -> None:
        """Forget every key (and give back the memory past the first
        :data:`MIN_SLOTS` slots)."""
        self._slots = array("I", _FREE_BYTES * MIN_SLOTS)
        if self._tags is not None:
            self._tags = array("I", _FREE_BYTES * MIN_SLOTS)
        self._size, self._count = MIN_SLOTS, 0
        self._rest.clear()


def tx_list_digest(batch: TxBatch) -> str:
    """``digest_of([t.key + (t.payload,) for t in batch])``, the one
    encoding of a batch (:func:`tx_list_encoding`'s digest)."""
    return tx_list_encoding(batch)[0]


def tx_list_encoding(batch: TxBatch) -> "tuple[str, Optional[int]]":
    """``(tx_list_digest(batch), wire)``, built in one pass over the
    batch's columns with no call per transaction: a shared payload is
    encoded once, else the payloads' encode and length are C maps over
    the batch.  ``wire`` is ``batch.wire_size()`` where the payloads are
    a per-row column, summed from the lengths the digest took; ``None``
    for a shared payload, whose wire size costs no pass.
    Pinned by tests/property/test_batch_encoders.py."""
    keys, payloads, n = batch.keys(), batch.payloads, batch.n
    wire = None
    if payloads.__class__ is not str:
        data = list(map(str.encode, payloads))
        lengths = list(map(len, data))
        items = [b"l3:i%di%ds%d:%s" % (c, i, size, d) if size
                 else b"l3:i%di%ds0:" % (c, i)
                 for (c, i), d, size in zip(keys, data, lengths)]
        sizes = batch.payload_sizes
        if sizes.__class__ not in COLUMN_TYPES:
            sizes = repeat(sizes, n)
        wire = TX_METADATA_BYTES * n + sum(map(max, sizes, lengths))
    elif payloads:
        data = payloads.encode()
        size = len(data)
        items = [b"l3:i%di%ds%d:%s" % (c, i, size, data) for c, i in keys]
    else:
        items = [b"l3:i%di%ds0:" % key for key in keys]
    return (hashlib.sha256(b"l%d:%s" % (n, b"".join(items))).hexdigest(),
            wire)


__all__ = ["Transaction", "TxBatch", "TxKeySet", "EMPTY_BATCH",
           "append_ints", "tx_list_digest", "tx_list_encoding",
           "tx_wire_size", "TX_METADATA_BYTES"]
