"""Deterministic transaction execution.

The paper assumes ``executeTx(txs, h_p)`` producing execution results
``op`` that anyone can re-derive and verify (Sec. 4.2).  We implement a
small key-value state machine: payloads of the form ``"SET <key> <value>"``
update the store; anything else is folded into the state digest as an
opaque write.  ``op`` is one digest per batch,
``digest_of("exec", h_p, tx_list_digest(txs))``: the parent hash and the
ordered batch.  Execution is deterministic, so these fix the state after
the batch; equal prefixes yield equal results, and a result over another
parent, batch or order is detectable by any replica that re-derives it.

The state root has two jobs that pull in opposite directions:

* it must commit to the **full execution history** (two different orders
  of the same writes must yield different roots — the root is what makes
  forged execution results detectable), and
* it must be **recomputable from a snapshot** (a replica installing a
  certified snapshot must be able to check the carried state against the
  certificate without replaying pruned history).

So the root binds both: a rolling per-effect history digest *and* a
digest of the materialized items, plus the applied count.  A snapshot
carries ``(items, history digest, applied)``; the receiver recomputes
:func:`compute_state_root` over them and compares against the
certificate-signed root — tampering with any of the three is caught.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter, methodcaller

from repro.chain.transaction import TxBatch, tx_list_digest
from repro.crypto.hashing import digest_of
from repro.errors import StateMachineError

#: Largest value accepted by a ``SET`` (bytes of the UTF-8 payload text).
#: Oversized values are rejected with :class:`StateMachineError` rather
#: than silently applied — unbounded values would let one transaction blow
#: up every snapshot and state-transfer message downstream.
MAX_VALUE_BYTES = 4096

#: Size of the hash ring keys are mapped onto (32-bit points).
KEYSPACE = 1 << 32

_split = methodcaller("split", " ", 2)
_last = itemgetter(-1)


def key_point(key: str) -> int:
    """Map a key to a stable point on the ``[0, 2**32)`` hash ring.

    Pure function of the key (sha256-based, platform-independent): the
    shard-range splitter and the router must place every key identically
    across processes and runs.
    """
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:4], "big")


def validate_write(key: str, value: str) -> None:
    """Typed admission check for one ``SET`` write.

    Raises :class:`StateMachineError` on an empty key or an oversized
    value; shared by :meth:`KVStateMachine.apply_batch` and the shard
    router so a bad write is rejected at the door with the same error it
    would die with at apply time on every replica.
    """
    if not key:
        raise StateMachineError("SET with an empty key")
    if len(value.encode()) > MAX_VALUE_BYTES:
        raise StateMachineError(
            f"SET value for {key!r} exceeds {MAX_VALUE_BYTES} bytes")


def compute_state_root(items: "tuple[tuple[str, str], ...]", history: str,
                       applied: int) -> str:
    """The state root over a materialized snapshot of machine state.

    ``items`` must be sorted by key (the canonical snapshot order);
    ``history`` is the rolling per-effect digest; ``applied`` the number
    of transactions executed.  Pure function: snapshot validation uses it
    without constructing a machine.
    """
    return digest_of("kv-root", history, items, applied)


class KVStateMachine:
    """Replayable key-value state machine with a verifiable state root."""

    def __init__(self) -> None:
        self._state: dict[str, str] = {}
        # Canonical encoding of each ``(key, value)`` item, kept beside
        # ``_state`` by :meth:`_put` so the root hashes this machine's own
        # materialized state without re-encoding every key per commit.
        self._item_bytes: dict[str, bytes] = {}
        # Canonical encoding of each written key (a pure function of the
        # key, so it survives snapshot installs), shared by its item bytes
        # and every history step that writes it.
        self._key_bytes: dict[str, bytes] = {}
        # Rolling digest over every effect ever applied, in order — the
        # history-sensitive half of the root.
        self._history: str = digest_of("kv-history")
        self.applied: int = 0
        #: Height of the last committed block whose batch was applied
        #: (0 = genesis/empty).  Maintained by the replica layer.
        self.state_height: int = 0
        self._root: str | None = None

    @property
    def state_root(self) -> str:
        """Digest committing to the execution history *and* the
        materialized state: computed at its first read after a change,
        then cached until the next one."""
        if self._root is None:
            # Inlined compute_state_root over the per-key bytes; pinned
            # equal to it by tests/property/test_batch_encoders.py.
            enc = self._item_bytes
            self._root = hashlib.sha256(b"s7:kv-roots64:%sl%d:%si%d" % (
                self._history.encode(), len(enc),
                b"".join([enc[k] for k in sorted(enc)]), self.applied,
            )).hexdigest()
        return self._root

    def get(self, key: str) -> str | None:
        """Read a key (for examples/tests)."""
        return self._state.get(key)

    def __len__(self) -> int:
        return len(self._state)

    def _put(self, key: str, value: str) -> None:
        """Store one write and its canonical item encoding."""
        kb = key.encode()
        vb = value.encode()
        self._state[key] = value
        self._item_bytes[key] = b"l2:s%d:%ss%d:%s" % (len(kb), kb, len(vb), vb)

    def apply_batch(self, txs: TxBatch) -> None:
        """Apply a batch.

        The state root is not computed here: :attr:`state_root` hashes
        every item, so it is left to whoever reads it (a checkpoint's
        snapshot capture, the invariant monitor, a campaign's extras),
        once per read of a changed state rather than once per block.
        ``Transaction`` objects are taken as their
        :class:`~repro.chain.transaction.TxBatch`: the execution probes in
        benchmarks/perf/probes.py apply tuples of them."""
        if txs.__class__ is not TxBatch:
            txs = TxBatch.of(txs)
        self._execute(txs)

    #: Payload kinds (first word, followed by a space) that a subclass
    #: executes itself, in log order, through ``_route(key, parts)``.
    _ROUTED: frozenset = frozenset()

    def _execute(self, batch: TxBatch) -> None:
        """The one apply loop: fold each effect into the history in order.

        Inlined digest_of(history, (kind, key, value)) and, for a write,
        the item bytes: the two encodings share their (key, value) tail,
        and a key's half of it is memoised.  Every payload's split and its
        last part's encode and length are C maps over the batch (only a
        ``SET`` reads them), so a ``SET`` costs only its hash.  The history
        stays bytes until the loop ends (or a routed entry reads it); the
        ``finally`` keeps every effect applied before a rejected write.
        tests/property/test_batch_encoders.py pins both to digest_of.
        """
        state, items, memo = self._state, self._item_bytes, self._key_bytes
        routed, sha = self._ROUTED, hashlib.sha256
        history, applied = self._history.encode(), self.applied
        payloads = batch.payloads
        if payloads.__class__ is str:
            payloads = (payloads,) * batch.n
        splits = list(map(_split, payloads))
        lasts = list(map(str.encode, map(_last, splits)))
        try:
            for client, tx_id, payload, parts, vb, vlen in zip(
                    batch.client_ids, batch.tx_ids, payloads, splits, lasts,
                    map(len, lasts)):
                if parts[0] == "SET" and parts[2:]:
                    key, value = parts[1], parts[2]
                    if vlen > MAX_VALUE_BYTES:
                        validate_write(key, value)
                    try:
                        kenc = memo[key]
                    except KeyError:
                        validate_write(key, value)
                        kb = key.encode()
                        kenc = memo[key] = b"s%d:%s" % (len(kb), kb)
                    venc = b"s%d:%s" % (vlen, vb)
                    state[key] = value
                    items[key] = b"l2:%s%s" % (kenc, venc)
                    history = sha(b"s64:%sl3:s3:SET%s%s" % (
                        history, kenc, venc)).hexdigest().encode()
                elif parts[0] in routed and parts[1:]:
                    self._history, self.applied = history.decode(), applied
                    self._route((client, tx_id), parts)
                    history, applied = self._history.encode(), self.applied
                    continue
                else:
                    kb = str((client, tx_id)).encode()
                    vb = payload.encode()
                    history = sha(b"s64:%sl3:s6:OPAQUEs%d:%ss%d:%s" % (
                        history, len(kb), kb, len(vb), vb)).hexdigest().encode()
                applied += 1
        finally:
            self._history, self.applied = history.decode(), applied
            self._root = None

    def items_in_range(self, lo: int, hi: int) -> "tuple[tuple[str, str], ...]":
        """The items whose :func:`key_point` falls in ``[lo, hi)``, sorted.

        Deterministic (sorted by key, stable hash): this is what the
        shard-range splitter uses to carve one machine's state into
        per-shard slices, so every caller derives the identical split.
        """
        return tuple(sorted(
            (k, v) for k, v in self._state.items() if lo <= key_point(k) < hi
        ))

    # ------------------------------------------------------------------
    # Snapshots (see repro.chain.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> "tuple[tuple[tuple[str, str], ...], str, int]":
        """The machine's full state as snapshot-portable data:
        ``(sorted items, history digest, applied count)``."""
        return (tuple(sorted(self._state.items())), self._history, self.applied)

    def install_snapshot(self, items: "tuple[tuple[str, str], ...]",
                         history: str, applied: int, height: int) -> str:
        """Replace the machine's state with snapshot-carried data.

        The caller has already validated the data against a certified
        root (:meth:`repro.chain.snapshot.Snapshot.validate`).  Returns
        the resulting state root.
        """
        self._state = {}
        self._item_bytes = {}
        for key, value in items:
            self._put(key, value)
        self._history = history
        self.applied = applied
        self.state_height = height
        self._root = None
        return self.state_root


def execute_transactions(txs: TxBatch, parent_hash: str) -> str:
    """The paper's ``executeTx(txs, h_p)``: deterministic execution results.

    ``digest_of("exec", parent_hash, tx_list_digest(txs))``: it commits to
    the parent (the whole prefix, via its hash) and to the batch in order,
    so any two honest nodes derive the same ``op`` and a Byzantine leader
    cannot attach wrong results undetected.  The batch is encoded once.
    """
    return execution_results(parent_hash, tx_list_digest(txs))


def execution_results(parent_hash: str, batch_digest: str) -> str:
    """:func:`execute_transactions` over a batch already digested by
    ``tx_list_digest``, as :attr:`repro.chain.block.Block.batch_digest`
    holds it."""
    # The outer digest_of encoded in line; pinned to it by
    # tests/property/test_batch_encoders.py.
    parent = parent_hash.encode()
    return hashlib.sha256(b"s4:execs%d:%ss64:%s" % (
        len(parent), parent, batch_digest.encode())).hexdigest()


__all__ = ["KVStateMachine", "compute_state_root", "execute_transactions",
           "execution_results", "key_point", "validate_write", "KEYSPACE",
           "MAX_VALUE_BYTES"]
