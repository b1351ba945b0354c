"""Client transactions.

Per paper Sec. 5.1, each transaction carries a client id and transaction id
(8 B of metadata) plus a payload of 0/256/512 B.  The payload is opaque to
consensus; the KV state machine interprets payloads of the form
``"SET <key> <value>"`` and treats anything else as a no-op write of its
own digest (so execution results are still deterministic functions of the
payload).

Transactions are immutable by convention and minted in bulk (every
``take`` from a saturated source creates a full batch), so the class is a
hand-rolled ``__slots__`` type rather than a dataclass: constructing
hundreds of thousands of them per run made the generated
``__init__``/``__post_init__`` pair a measurable slice of simulator
profiles.  ``key`` (the globally unique identity) and the wire size are
precomputed at construction; nothing may write to a transaction after
``__init__`` (or :func:`mint_batch`) returns, or digests derived from it
would go stale.  A batch is minted by :func:`mint_batch`, column by
column, with no Python frame per transaction.
"""

from __future__ import annotations

import hashlib
from itertools import repeat
from operator import add, attrgetter
from typing import Iterable, Sequence

#: Metadata bytes per transaction (client id + transaction id), Sec. 5.1.
TX_METADATA_BYTES = 8

_payload = attrgetter("payload")


class Transaction:
    """One client transaction."""

    __slots__ = ("client_id", "tx_id", "payload", "payload_size",
                 "created_at", "key", "_wire_size")

    def __init__(self, client_id: int, tx_id: int, payload: str = "",
                 payload_size: int = 0, created_at: float = 0.0) -> None:
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


def mint_batch(client_ids: Iterable[int], tx_ids: Sequence[int],
               payloads: Iterable[str], payload_size: int,
               created_ats: Iterable[float]) -> "list[Transaction]":
    """``[Transaction(c, i, p, payload_size, t) for c, i, p, t in zip(...)]``
    with no Python frame per transaction: the objects are allocated and
    each slot is stored column-wise by ``map`` over C functions (``any``
    drains a ``map`` of ``setattr``, which returns ``None``).  One
    transaction per entry of ``tx_ids``; every other column is read once,
    so it may be an iterator (``repeat``).  ``key`` and the wire size are
    derived from the stored slots, so ``key`` shares its ints with them as
    in ``__init__``.  Pinned to the constructor by
    tests/property/test_transaction_mint.py."""
    txs = list(map(object.__new__, repeat(Transaction, len(tx_ids))))
    any(map(setattr, txs, repeat("client_id"), client_ids))
    any(map(setattr, txs, repeat("tx_id"), tx_ids))
    any(map(setattr, txs, repeat("payload"), payloads))
    any(map(setattr, txs, repeat("payload_size"), repeat(payload_size)))
    any(map(setattr, txs, repeat("created_at"), created_ats))
    any(map(setattr, txs, repeat("key"), zip(
        map(getattr, txs, repeat("client_id")),
        map(getattr, txs, repeat("tx_id")))))
    # As in __init__: metadata + max(declared size, the text's bytes).
    any(map(setattr, txs, repeat("_wire_size"), map(
        add, repeat(TX_METADATA_BYTES), map(max, repeat(payload_size), map(
            len, map(str.encode, map(getattr, txs, repeat("payload"))))))))
    return txs


def tx_list_digest(txs: Sequence[Transaction]) -> str:
    """``digest_of([t.key + (t.payload,) for t in txs])``, the one encoding
    of a batch, built in one pass with no call per transaction: the
    payloads' encode and length are C maps over the batch.
    Pinned by tests/property/test_batch_encoders.py."""
    data = list(map(str.encode, map(_payload, txs)))
    return hashlib.sha256(b"l%d:%s" % (len(txs), b"".join([
        b"l3:i%di%ds%d:%s" % (t.client_id, t.tx_id, n, d) if n
        else b"l3:i%di%ds0:" % t.key
        for t, d, n in zip(txs, data, map(len, data))]))).hexdigest()


__all__ = ["Transaction", "mint_batch", "tx_list_digest", "tx_wire_size",
           "TX_METADATA_BYTES"]
