"""2PC-aware shard state machine.

Cross-shard atomicity rides *inside* each shard's BFT log: every 2PC
phase is an ordinary transaction that the shard orders like any other,
and this machine gives those entries deterministic apply semantics —
locks, buffered writes, commit/abort, and a block-count TTL that aborts
an abandoned prepare.  Because the semantics are a pure function of the
shard's ordered log, every replica of a shard holds the same locks and
reaches the same outcome for every transaction, crash/replay included.

Payload grammar (everything else falls through to the plain KV machine):

* ``TPREP <txid> <k=v&k=v...>`` — acquire locks, buffer the writes;
  outcome ``prepared``, or ``aborted`` on a lock conflict.
* ``TCMT <txid>`` — apply the buffered writes and release the locks;
  outcome ``committed`` (idempotent), or ``rejected`` if the prepare
  already aborted/expired (the partial-application hazard the atomicity
  invariant watches).
* ``TABT <txid>`` — release the locks; outcome ``aborted`` (idempotent;
  an unknown txid is recorded aborted so a late prepare cannot resurrect
  it).
* ``TDEC <txid> <commit|abort>`` — the coordinator shard's BFT-ordered
  decision record; outcome ``decided-<decision>``.

The TTL (``txn_ttl_blocks``) is measured in the shard's *own* committed
blocks, so it is deterministic per log and freezes while the shard is
down — a rebooted shard replays to identical state and only then resumes
the countdown.  ``txn_ttl_blocks=None`` disables the defense; the
negative-control chaos campaigns use that to demonstrate wedged locks.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

from repro.chain.execution import KVStateMachine, validate_write
from repro.errors import StateMachineError


def encode_writes(writes: "dict[str, str] | Iterable[tuple[str, str]]") -> str:
    """Serialize a write set into the ``TPREP`` wire form.

    Validates each write with the same typed checks a plain ``SET`` gets,
    plus the grammar constraints (no ``&``/space/``=``-in-key), so a bad
    transaction is rejected at the router rather than crashing replicas.
    """
    items = writes.items() if isinstance(writes, dict) else writes
    parts = []
    for key, value in items:
        validate_write(key, value)
        if "&" in key or " " in key or "=" in key:
            raise StateMachineError(f"key {key!r} contains a reserved character")
        if "&" in value or " " in value:
            raise StateMachineError(
                f"value for {key!r} contains a reserved character")
        parts.append(f"{key}={value}")
    if not parts:
        raise StateMachineError("a 2PC prepare needs at least one write")
    return "&".join(parts)


def decode_writes(encoded: str) -> "tuple[tuple[str, str], ...]":
    """Parse the ``TPREP`` write set (inverse of :func:`encode_writes`)."""
    writes = []
    for part in encoded.split("&"):
        key, sep, value = part.partition("=")
        if not sep:
            raise StateMachineError(f"malformed write {part!r}")
        writes.append((key, value))
    return tuple(writes)


class _TxnEntry:
    """Per-transaction 2PC bookkeeping on one shard."""

    __slots__ = ("status", "writes")

    def __init__(self, status: str,
                 writes: "tuple[tuple[str, str], ...]" = ()) -> None:
        self.status = status
        self.writes = writes


class ShardStateMachine(KVStateMachine):
    """A :class:`KVStateMachine` that also executes 2PC phase entries."""

    #: Default lock TTL in this shard's own committed blocks.  Must be
    #: comfortably above the worst-case prepare→commit dissemination lag
    #: measured in blocks (at LAN block cadence ~0.7 blocks/ms, 1500
    #: blocks ≈ 2.2 s against a manager pipeline bounded by ~1.1 s), or a
    #: late persistent TCMT could race a deterministic expiry.
    DEFAULT_TTL_BLOCKS = 1500

    def __init__(self,
                 txn_ttl_blocks: Optional[int] = DEFAULT_TTL_BLOCKS) -> None:
        super().__init__()
        if txn_ttl_blocks is not None and txn_ttl_blocks <= 0:
            raise StateMachineError("txn_ttl_blocks must be positive or None")
        self.txn_ttl_blocks = txn_ttl_blocks
        #: key -> txid currently holding its lock
        self.locks: dict[str, str] = {}
        #: txid -> :class:`_TxnEntry`
        self.txns: dict[str, _TxnEntry] = {}
        # txid -> prepare height of each transaction still "prepared", in
        # prepare order (heights never fall on one machine), so the TTL
        # sweep reads only the due prefix.
        self._prepared: dict[str, int] = {}
        #: txid -> coordinator decision record ("commit"/"abort")
        self.decisions: dict[str, str] = {}
        #: Commits arriving after a local abort/expiry — the atomicity
        #: hazard counter (should stay 0 with sane TTL vs. decide timing).
        self.late_commit_rejects = 0
        #: Prepares aborted by the TTL defense.
        self.expired = 0
        # tx key -> outcome string, consumed by the replica's ClientReply
        # annotation (see ReplicaBase.commit_block).
        self._outcomes: dict[tuple[int, int], str] = {}

    # ------------------------------------------------------------------
    # Replica integration
    # ------------------------------------------------------------------
    def reply_outcome(self, tx_key: "tuple[int, int]") -> str:
        """The outcome annotation for a committed transaction ("" for
        plain writes)."""
        return self._outcomes.get(tx_key, "")

    def txn_status(self, txid: str) -> str:
        """The local status of a 2PC transaction ("unknown" if never
        prepared here)."""
        entry = self.txns.get(txid)
        return entry.status if entry is not None else "unknown"

    # ------------------------------------------------------------------
    # Deterministic apply
    # ------------------------------------------------------------------
    def apply_batch(self, txs) -> None:
        """Expire stale prepares for the block being applied, then apply.

        The replica layer calls this once per committed block with
        ``state_height`` still at the parent, so ``state_height + 1`` is
        the applying block's height — expiry is a pure function of the
        shard's ordered log and the TTL.
        """
        self._expire(self.state_height + 1)
        super().apply_batch(txs)

    def _expire(self, height: int) -> None:
        """Abort the prepares ``height`` finds ``txn_ttl_blocks`` old, in
        txid order.  The due ones are a prefix of :attr:`_prepared`, so a
        block pays for what it expires, not for the shard's history;
        tests/property/test_shard_expiry.py holds it to the full sorted
        sweep."""
        ttl = self.txn_ttl_blocks
        if ttl is None:
            return
        due = []
        for txid, prepared_at in self._prepared.items():
            if height - prepared_at < ttl:
                break
            due.append(txid)
        if not due:
            return
        for txid in sorted(due):
            del self._prepared[txid]
            self._release(txid)
            self.txns[txid].status = "aborted"
            self.expired += 1
            self._fold("TEXP", txid, height)

    def _fold(self, kind: str, txid: str, last: "str | int") -> None:
        """Fold the effect ``(kind, txid, last)`` into the history.

        Every 2PC effect lands in the rolling history digest exactly the
        way plain effects do, so the state-agreement invariant covers
        locks and outcomes too.  Inlined ``digest_of(history, (kind,
        txid, last))`` (``last`` an outcome or an expiry height), pinned
        to it by tests/property/test_shard_expiry.py.
        """
        kb, tb = kind.encode(), txid.encode()
        if last.__class__ is int:
            lenc = b"i%d" % last
        else:
            lb = last.encode()
            lenc = b"s%d:%s" % (len(lb), lb)
        self._history = hashlib.sha256(b"s64:%sl3:s%d:%ss%d:%s%s" % (
            self._history.encode(), len(kb), kb, len(tb), tb,
            lenc)).hexdigest()
        self._root = None

    def _release(self, txid: str) -> None:
        for key in [k for k, holder in self.locks.items() if holder == txid]:
            del self.locks[key]

    _ROUTED = frozenset(("TPREP", "TCMT", "TABT", "TDEC"))

    def _route(self, key: "tuple[int, int]", parts: "list[str]") -> None:
        """Execute one 2PC entry where the apply loop meets it in the log."""
        kind, txid = parts[0], parts[1]
        if kind == "TPREP":
            outcome = self._apply_prepare(txid, parts)
        elif kind == "TCMT":
            outcome = self._apply_commit(txid)
        elif kind == "TABT":
            outcome = self._apply_abort(txid)
        else:  # TDEC
            outcome = self._apply_decide(txid, parts)
        self._outcomes[key] = outcome
        self._fold(kind, txid, outcome)
        self.applied += 1

    def _apply_prepare(self, txid: str, parts: "list[str]") -> str:
        entry = self.txns.get(txid)
        if entry is not None:
            # Duplicate/late prepare: never re-lock; report where the
            # transaction already ended up (an aborted txid stays dead).
            return entry.status if entry.status != "prepared" else "prepared"
        if len(parts) != 3:
            raise StateMachineError(f"malformed prepare for {txid!r}")
        writes = decode_writes(parts[2])
        for key, value in writes:
            validate_write(key, value)
        if any(key in self.locks for key, _ in writes):
            self.txns[txid] = _TxnEntry("aborted")
            return "aborted"
        for key, _ in writes:
            self.locks[key] = txid
        self.txns[txid] = _TxnEntry("prepared", writes)
        self._prepared[txid] = self.state_height + 1
        return "prepared"

    def _apply_commit(self, txid: str) -> str:
        entry = self.txns.get(txid)
        if entry is None or entry.status == "aborted":
            self.late_commit_rejects += 1
            return "rejected"
        if entry.status == "prepared":
            for key, value in entry.writes:
                self._put(key, value)
            del self._prepared[txid]
            self._release(txid)
            entry.status = "committed"
        return "committed"

    def _apply_abort(self, txid: str) -> str:
        entry = self.txns.get(txid)
        if entry is None:
            # Record the abort so a late prepare cannot resurrect the txid.
            self.txns[txid] = _TxnEntry("aborted")
            return "aborted"
        if entry.status == "committed":
            return "committed"
        if entry.status == "prepared":
            del self._prepared[txid]
            self._release(txid)
            entry.status = "aborted"
        return "aborted"

    def _apply_decide(self, txid: str, parts: "list[str]") -> str:
        if len(parts) != 3 or parts[2] not in ("commit", "abort"):
            raise StateMachineError(f"malformed decision for {txid!r}")
        decision = self.decisions.setdefault(txid, parts[2])
        return f"decided-{decision}"

    # ------------------------------------------------------------------
    # Snapshots: unsupported — a snapshot would drop the lock table.
    # ------------------------------------------------------------------
    def snapshot_state(self):
        raise StateMachineError(
            "shard state machines do not snapshot (the lock table is not "
            "snapshot-portable); run shards without the snapshot layer")

    def install_snapshot(self, items, history, applied, height):
        raise StateMachineError(
            "shard state machines do not install snapshots; rebooted "
            "replicas recover by log replay")


__all__ = ["ShardStateMachine", "encode_writes", "decode_writes"]
