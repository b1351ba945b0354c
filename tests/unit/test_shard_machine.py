"""ShardStateMachine: deterministic 2PC apply semantics."""

from __future__ import annotations

import pytest

from repro.chain.transaction import Transaction
from repro.errors import StateMachineError
from repro.shard.machine import (ShardStateMachine, decode_writes,
                                 encode_writes)


def _tx(seq: int, payload: str) -> Transaction:
    return Transaction(client_id=9, tx_id=seq, payload=payload,
                       payload_size=0, created_at=0.0)


def _apply(machine: ShardStateMachine, *payloads: str) -> "list[str]":
    outcomes = []
    for payload in payloads:
        seq = machine.applied + 1000
        tx = _tx(seq, payload)
        machine.apply_batch([tx])
        outcomes.append(machine.reply_outcome(tx.key))
    return outcomes


class TestWireForm:
    def test_roundtrip(self):
        writes = {"a": "1", "b": "2"}
        assert dict(decode_writes(encode_writes(writes))) == writes

    def test_reserved_characters_rejected(self):
        for key, value in (("a&b", "v"), ("a b", "v"), ("a=b", "v"),
                           ("k", "v&w"), ("k", "v w")):
            with pytest.raises(StateMachineError):
                encode_writes({key: value})

    def test_empty_write_set_rejected(self):
        with pytest.raises(StateMachineError):
            encode_writes({})

    def test_typed_validation_applies(self):
        with pytest.raises(StateMachineError):
            encode_writes({"": "v"})


class TestPrepareCommitAbort:
    def test_commit_applies_buffered_writes(self):
        machine = ShardStateMachine()
        prep, cmt = _apply(machine, "TPREP t1 a=1&b=2", "TCMT t1")
        assert (prep, cmt) == ("prepared", "committed")
        assert machine.get("a") == "1" and machine.get("b") == "2"
        assert machine.locks == {}
        assert machine.txn_status("t1") == "committed"

    def test_prepare_buffers_without_applying(self):
        machine = ShardStateMachine()
        _apply(machine, "TPREP t1 a=1")
        assert machine.get("a") is None
        assert machine.locks == {"a": "t1"}

    def test_abort_releases_without_applying(self):
        machine = ShardStateMachine()
        outcomes = _apply(machine, "TPREP t1 a=1", "TABT t1")
        assert outcomes == ["prepared", "aborted"]
        assert machine.get("a") is None
        assert machine.locks == {}

    def test_lock_conflict_aborts_second_prepare(self):
        machine = ShardStateMachine()
        outcomes = _apply(machine, "TPREP t1 a=1", "TPREP t2 a=2&c=3")
        assert outcomes == ["prepared", "aborted"]
        # The loser takes no locks at all, not even on the free key.
        assert machine.locks == {"a": "t1"}
        assert machine.txn_status("t2") == "aborted"

    def test_commit_and_abort_are_idempotent(self):
        machine = ShardStateMachine()
        _apply(machine, "TPREP t1 a=1")
        assert _apply(machine, "TCMT t1", "TCMT t1") == ["committed"] * 2
        # Abort after commit reports committed (never un-applies).
        assert _apply(machine, "TABT t1") == ["committed"]
        assert machine.get("a") == "1"
        machine2 = ShardStateMachine()
        _apply(machine2, "TPREP t2 b=1")
        assert _apply(machine2, "TABT t2", "TABT t2") == ["aborted"] * 2

    def test_commit_after_abort_rejected(self):
        machine = ShardStateMachine()
        outcomes = _apply(machine, "TPREP t1 a=1", "TABT t1", "TCMT t1")
        assert outcomes == ["prepared", "aborted", "rejected"]
        assert machine.get("a") is None
        assert machine.late_commit_rejects == 1

    def test_abort_tombstone_blocks_late_prepare(self):
        """An abort ordered before its prepare leaves a tombstone, so the
        zombie prepare cannot take locks that nobody will ever release."""
        machine = ShardStateMachine()
        outcomes = _apply(machine, "TABT t1", "TPREP t1 a=1")
        assert outcomes == ["aborted", "aborted"]
        assert machine.locks == {}

    def test_commit_of_unknown_txid_rejected(self):
        machine = ShardStateMachine()
        assert _apply(machine, "TCMT t9") == ["rejected"]
        assert machine.late_commit_rejects == 1

    def test_decision_record_is_first_writer_wins(self):
        machine = ShardStateMachine()
        outcomes = _apply(machine, "TDEC t1 commit", "TDEC t1 abort")
        assert outcomes == ["decided-commit", "decided-commit"]
        assert machine.decisions["t1"] == "commit"

    def test_malformed_entries_raise(self):
        machine = ShardStateMachine()
        for payload in ("TPREP t1", "TPREP t1 nosep", "TDEC t1 maybe"):
            with pytest.raises(StateMachineError):
                machine.apply_batch([_tx(1, payload)])

    def test_plain_writes_fall_through(self):
        machine = ShardStateMachine()
        machine.apply_batch([_tx(1, "SET k v")])
        assert machine.get("k") == "v"


def _commit_block(machine: ShardStateMachine, *payloads: str) -> None:
    """Apply one block the way the replica layer does: ``apply_batch``
    with ``state_height`` still at the parent, then advance it."""
    height = machine.state_height + 1
    machine.apply_batch([_tx(height * 100 + i, payload)
                         for i, payload in enumerate(payloads)])
    machine.state_height = height


class TestTtlExpiry:
    def test_abandoned_prepare_expires_after_ttl_blocks(self):
        machine = ShardStateMachine(txn_ttl_blocks=3)
        _commit_block(machine, "TPREP t1 a=1")  # height 1
        for _ in range(2):
            _commit_block(machine, "SET k v")
        assert machine.txn_status("t1") == "prepared"
        _commit_block(machine, "SET k9 v")  # height 4 = 1 + ttl
        assert machine.txn_status("t1") == "aborted"
        assert machine.expired == 1
        assert machine.locks == {}

    def test_commit_before_ttl_wins(self):
        machine = ShardStateMachine(txn_ttl_blocks=3)
        _commit_block(machine, "TPREP t1 a=1")
        _commit_block(machine, "TCMT t1")
        for _ in range(5):
            _commit_block(machine, "SET k v")
        assert machine.txn_status("t1") == "committed"
        assert machine.expired == 0

    def test_ttl_disabled_wedges_forever(self):
        machine = ShardStateMachine(txn_ttl_blocks=None)
        _commit_block(machine, "TPREP t1 a=1")
        for _ in range(50):
            _commit_block(machine, "SET k v")
        assert machine.txn_status("t1") == "prepared"
        assert machine.locks == {"a": "t1"}

    def test_invalid_ttl_rejected(self):
        with pytest.raises(StateMachineError):
            ShardStateMachine(txn_ttl_blocks=0)


class TestDeterminism:
    def test_replaying_one_log_reproduces_state_and_history(self):
        log = ["TPREP t1 a=1&b=2", "TPREP t2 a=9", "TCMT t1",
               "TABT t2", "SET c 3", "TDEC t3 abort", "TPREP t4 d=4"]
        machines = [ShardStateMachine(txn_ttl_blocks=5) for _ in range(2)]
        for machine in machines:
            for height, payload in enumerate(log):
                machine.apply_batch([_tx(height, payload)])
        a, b = machines
        assert a.state_root == b.state_root
        assert a.locks == b.locks
        assert {t: e.status for t, e in a.txns.items()} == \
               {t: e.status for t, e in b.txns.items()}

    def test_2pc_effects_fold_into_history_digest(self):
        plain, sharded = ShardStateMachine(), ShardStateMachine()
        plain.apply_batch([_tx(1, "SET a 1")])
        sharded.apply_batch([_tx(1, "TPREP t1 a=1")])
        sharded.apply_batch([_tx(2, "TCMT t1")])
        # Same KV contents, different histories: locks and outcomes are
        # part of the agreed state.
        assert plain.get("a") == sharded.get("a") == "1"
        assert plain.state_root != sharded.state_root

    def test_2pc_committed_writes_reach_the_state_root(self):
        # TCMT writes through the same per-key bytes the root is hashed
        # from: the root must equal the reference over the visible items,
        # including a 2PC overwrite of a plainly written key.
        from repro.chain.execution import KVStateMachine, compute_state_root

        machine = ShardStateMachine()
        _apply(machine, "SET a 0", "TPREP t1 a=1&b=2", "TCMT t1")
        items, history, applied = KVStateMachine.snapshot_state(machine)
        assert items == (("a", "1"), ("b", "2"))
        assert machine.state_root == compute_state_root(
            items, history, applied)


class TestSnapshotsUnsupported:
    def test_snapshot_paths_raise(self):
        machine = ShardStateMachine()
        with pytest.raises(StateMachineError):
            machine.snapshot_state()
        with pytest.raises(StateMachineError):
            machine.install_snapshot((), "h", 0, 0)
