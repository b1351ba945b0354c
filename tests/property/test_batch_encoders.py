"""The per-block batch encoders equal the ``digest_of`` reference.

``tx_list_digest`` (the batch digest ``Block.hash`` and
``execute_transactions`` share), the ``KVStateMachine`` history
step, ``state_root`` and ``digest_of``'s flat fast path each build their
canonical bytes in line instead of calling the generic ``_canonical`` per
item.  The encoding is frozen (``tests/unit/test_crypto.py`` pins its
bytes, ``tests/property/test_canonical_encoding.py`` its encoder), so
every one of them is held here to the generic formulation it replaced.
The apply loop keeps the history as bytes and routes 2PC entries mid-batch,
so a ``ShardStateMachine`` batch is held to applying it one transaction at
a time and to the ``digest_of`` fold of every effect in log order; the
roots of mixed KV and 2PC batches ending in a rejected write, and of a
shard's blocks through TTL expiries, are pinned byte for byte.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.block import Block, create_leaf, genesis_block
from repro.chain.execution import (MAX_VALUE_BYTES, KVStateMachine,
                                   compute_state_root, execute_transactions)
from repro.chain.transaction import Transaction, TxBatch, tx_list_digest
from repro.crypto.hashing import _canonical, digest_of
from repro.errors import StateMachineError
from repro.shard.machine import ShardStateMachine

#: Payload shapes the encoders branch on: arbitrary unicode, empty, a
#: plain write, embedded spaces (the value keeps them), a multi-byte value
#: and a value at the size limit.
payloads = st.one_of(
    st.text(max_size=24),
    st.just(""),
    st.builds("SET {} {}".format,
              st.text(min_size=1, max_size=6).filter(lambda k: " " not in k),
              st.text(max_size=12)),
    st.sampled_from([
        "SET k v", "SET a b c  d ", "SET  v", "SET k ", "SETk v", "SET k",
        "SET ключ значение ✓", "SET big " + "x" * MAX_VALUE_BYTES,
        "SET wide " + "é" * (MAX_VALUE_BYTES // 2),
    ]),
)

transactions = st.builds(
    Transaction,
    client_id=st.integers(min_value=0, max_value=2 ** 40),
    tx_id=st.integers(min_value=0, max_value=2 ** 40),
    payload=payloads,
    payload_size=st.integers(min_value=0, max_value=512),
)

tx_batches = st.lists(transactions, max_size=6).map(tuple)


def reference_effect(tx: Transaction) -> tuple:
    """The effect ``apply`` folds into the history, as originally written."""
    parts = tx.payload.split(" ", 2)
    if len(parts) == 3 and parts[0] == "SET":
        return ("SET", parts[1], parts[2])
    return ("OPAQUE", str(tx.key), tx.payload)


def applicable(tx: Transaction) -> bool:
    effect = reference_effect(tx)
    return effect[0] != "SET" or bool(effect[1])


class TestBatchEncoders:
    @given(tx_batches, st.integers(0, 9), st.integers(-1, 30))
    @settings(max_examples=150, deadline=None)
    def test_block_hash(self, txs, view, proposer):
        block = create_leaf(txs, "op", genesis_block(), view, proposer)
        tx_digest = digest_of([t.key + (t.payload,) for t in txs])
        assert block.hash == digest_of(tx_digest, "op", block.parent_hash,
                                       view, 1, proposer)
        assert block.wire_size() == 2 * 32 + 20 + sum(
            t.wire_size() for t in txs)

    @given(tx_batches, st.text(max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_execute_transactions(self, txs, parent):
        batch = digest_of([t.key + (t.payload,) for t in txs])
        assert tx_list_digest(TxBatch.of(txs)) == batch
        assert execute_transactions(TxBatch.of(txs), parent) == \
            digest_of("exec", parent, batch)

    @given(tx_batches, tx_batches, st.text(max_size=8), st.text(max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_results_valid(self, txs, other, parent, other_parent):
        """A block's validity property is the paper's check
        ``op == executeTx(txs, h_p)``, over honest and forged ``op``."""
        txs, other = TxBatch.of(txs), TxBatch.of(other)
        for op in (execute_transactions(txs, parent),
                   execute_transactions(other, parent),
                   execute_transactions(txs[::-1], parent),
                   execute_transactions(txs, other_parent), "op"):
            block = Block(txs=txs, op=op, parent_hash=parent, view=1,
                          height=1)
            assert block.batch_digest == tx_list_digest(txs)
            assert block.results_valid == \
                (op == execute_transactions(txs, parent))

    @given(tx_batches)
    @settings(max_examples=150, deadline=None)
    def test_apply_history_step_and_state_root(self, txs):
        machine = KVStateMachine()
        state: dict = {}
        for tx in filter(applicable, txs):
            _, history, applied = machine.snapshot_state()
            effect = reference_effect(tx)
            machine.apply_batch([tx])
            if effect[0] == "SET":
                state[effect[1]] = effect[2]
            items, after, count = machine.snapshot_state()
            assert after == digest_of(history, effect)
            assert count == applied + 1
            assert items == tuple(sorted(state.items()))
            assert machine.state_root == compute_state_root(items, after, count)

    @given(st.lists(
        st.none() | st.booleans() | st.integers() | st.text(max_size=10)
        | st.floats(allow_nan=False) | st.binary(max_size=6)
        | st.lists(st.integers() | st.text(max_size=4), max_size=3),
        max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_digest_of_flat_fast_path(self, parts):
        expected = hashlib.sha256(
            b"".join(_canonical(p) for p in parts)).hexdigest()
        assert digest_of(*parts) == expected


#: Log entries a shard orders: 2PC phases over a few txids and keys (so
#: locks conflict, commits follow aborts, decisions repeat) between plain
#: writes to the same keys and opaque payloads.
txids = st.sampled_from(["t1", "t2", "t3"])
shard_keys = st.sampled_from(["a", "b", "c"])
shard_entries = st.one_of(
    st.builds("TPREP {} {}={}".format, txids, shard_keys,
              st.sampled_from(["1", "2"])),
    st.builds("TPREP {} {}=1&{}=2".format, txids, shard_keys, shard_keys),
    st.builds("TCMT {}".format, txids),
    st.builds("TABT {}".format, txids),
    st.builds("TDEC {} {}".format, txids, st.sampled_from(["commit", "abort"])),
    st.builds("SET {} {}".format, shard_keys, st.sampled_from(["x", "y z"])),
    st.sampled_from(["", "opaque", "TPREP", "TCMT"]),
)


class TestShardBatch:
    @given(st.lists(shard_entries, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_interleaved_2pc_batch_equals_one_at_a_time(self, payloads):
        txs = [Transaction(1, i, p) for i, p in enumerate(payloads)]
        batch, single = ShardStateMachine(), ShardStateMachine()
        batch.apply_batch(txs)
        for tx in txs:
            single.apply_batch([tx])
        history = digest_of("kv-history")
        for tx in txs:
            kind, space, rest = tx.payload.partition(" ")
            if kind in ("TPREP", "TCMT", "TABT", "TDEC") and space:
                effect = (kind, rest.split(" ")[0],
                          batch.reply_outcome(tx.key))
            else:
                effect = reference_effect(tx)
            history = digest_of(history, effect)
        for machine in (batch, single):
            assert machine._history == history
            assert machine.applied == len(txs)
        assert batch.state_root == single.state_root
        assert batch._outcomes == single._outcomes
        assert batch.locks == single.locks
        assert {t: e.status for t, e in batch.txns.items()} == \
            {t: e.status for t, e in single.txns.items()}
        assert [batch.get(k) for k in "abc"] == [single.get(k) for k in "abc"]


class TestStateRootFromOwnState:
    """The root is hashed from the per-key bytes kept beside ``_state``:
    every way of changing the state must keep the two in step."""

    @staticmethod
    def run(*payloads: str) -> KVStateMachine:
        machine = KVStateMachine()
        machine.apply_batch([Transaction(1, i, p)
                             for i, p in enumerate(payloads)])
        return machine

    @staticmethod
    def reference_root(machine: KVStateMachine) -> str:
        return compute_state_root(*machine.snapshot_state())

    def test_overwrite_of_an_existing_key(self):
        machine = self.run("SET a 1", "SET b 2", "SET a 3")
        assert machine.get("a") == "3"
        assert machine.state_root == self.reference_root(machine)
        assert machine.state_root != self.run("SET a 1", "SET b 2").state_root

    def test_install_snapshot_rebuilds_the_item_bytes(self):
        source = self.run("SET b 2", "SET a 1", "opaque", "SET ü ✓")
        items, history, applied = source.snapshot_state()
        target = self.run("SET stale x", "SET a old")
        assert target.install_snapshot(items, history, applied, 7) \
            == source.state_root
        assert target.get("stale") is None
        # ... and stays in step on the writes that follow the install.
        tx = Transaction(2, 0, "SET a 9")
        source.apply_batch([tx])
        target.apply_batch([tx])
        assert target.state_root == source.state_root \
            == self.reference_root(target)

    def test_same_state_by_different_write_orders(self):
        one = self.run("SET a 1", "SET b 2", "SET c 3")
        two = self.run("SET c 3", "SET a 1", "SET b 2")
        assert one.snapshot_state()[0] == two.snapshot_state()[0]
        # Different histories, so different roots; each is the reference
        # root of that machine's own (items, history, applied).
        assert one.state_root != two.state_root
        assert one.state_root == self.reference_root(one)
        assert two.state_root == self.reference_root(two)
        # With the history made equal, the items half alone decides.
        items, history, applied = one.snapshot_state()
        two.install_snapshot(two.snapshot_state()[0], history, applied, 3)
        assert two.state_root == one.state_root


class TestPinnedRoots:
    """``apply_batch`` over mixed batches, pinned byte for byte: each
    batch's root, then an oversized value that raises
    :class:`StateMachineError` with every write before it applied."""

    KV_BATCHES = (
        ("SET a 1", "SET b 2", "opaque words", "", "SET a 3", "SET ключ ✓",
         "SET c x y  z", "SET k"),
        ("SET b 4", "SET d 5", "SET a 6", "SETk v", "SET b 7"),
    )

    SHARD_BATCHES = (
        ("TPREP t1 a=1&b=2", "SET c 3", "TPREP t2 a=9", "TCMT t1",
         "TABT t2", "TDEC t1 commit", "opaque", "SET a 7", "SET c 8"),
        ("TPREP t3 c=1", "TDEC t3 abort", "TABT t3", "TCMT t3", "SET e 1",
         "TCMT t9", "SET c 2"),
    )

    #: ``(root, applied, history)`` after each batch and after the tail
    #: that raises; the same whether the oversized key was written before.
    PINS = {
        "kv": [("dc3e6c3c62d86bf5", 8, "adfbeff3e35b420e"),
               ("c141083192b04b42", 13, "50b42226515ede82"),
               ("ab61202437ede90a", 15, "fdf61c59ae324153")],
        "shard": [("aea14637c674db38", 9, "1dac122e451cc341"),
                  ("22b7f12144669675", 16, "90f7bb403b3f3e8b"),
                  ("14ef2968e35c27c9", 18, "fe4e3ef0c2df6d7f")],
    }

    #: Blocks of a shard with a TTL of 2 blocks: ``t9`` and ``t10``
    #: prepare in block 1 and both expire at the start of block 3, ``t10``
    #: first (sorted txid order, not prepare order); ``t9``'s commit then
    #: comes too late, and ``t12`` expires at the start of block 5.
    EXPIRY_BLOCKS = (
        ("TPREP t9 a=1", "TPREP t10 b=2&c=3", "SET e 5"),
        ("TPREP t11 d=4", "TDEC t9 commit", "opaque"),
        ("TCMT t9", "TCMT t11", "TPREP t12 a=7"),
        ("SET a 8",),
        ("TABT t12",),
    )

    #: ``(root, applied, history, expired)`` after each expiry block.
    EXPIRY_PINS = [("be75d3720859ccfd", 3, "823ce1fb36f6c90b", 0),
                   ("f8931360f9d9261d", 6, "4ef8a3cb3330503b", 0),
                   ("89d1759d48e48d02", 9, "abaf93a6984bc238", 2),
                   ("6b08cb9f6b3d5ad0", 10, "5b7f1c1c6324abfb", 2),
                   ("99769b193278ae95", 11, "9fb65ca394038319", 3)]

    @staticmethod
    def state(machine) -> tuple:
        return (machine.state_root[:16], machine.applied,
                machine._history[:16])

    def roots(self, machine, batches, oversized_key) -> list:
        seen, base = [], 0
        for batch in batches:
            machine.apply_batch([Transaction(1, base + i, p)
                                 for i, p in enumerate(batch)])
            base += len(batch)
            seen.append(self.state(machine))
        tail = [Transaction(2, 0, "SET f 1"), Transaction(2, 1, "opaque"),
                Transaction(2, 2, f"SET {oversized_key} "
                                  + "x" * (MAX_VALUE_BYTES + 1)),
                Transaction(2, 3, "SET g 1")]
        with pytest.raises(StateMachineError):
            machine.apply_batch(tail)
        assert machine.get("f") == "1" and machine.get("g") is None
        seen.append(self.state(machine))
        return seen

    @pytest.mark.parametrize("oversized_key", ["a", "new"])
    def test_kv_roots(self, oversized_key):
        assert self.roots(KVStateMachine(), self.KV_BATCHES, oversized_key) \
            == self.PINS["kv"]

    @pytest.mark.parametrize("oversized_key", ["c", "new"])
    def test_shard_roots(self, oversized_key):
        assert self.roots(ShardStateMachine(), self.SHARD_BATCHES,
                          oversized_key) == self.PINS["shard"]

    def test_expiry_roots(self):
        machine, seen, base = ShardStateMachine(txn_ttl_blocks=2), [], 0
        for height, block in enumerate(self.EXPIRY_BLOCKS, start=1):
            machine.apply_batch([Transaction(1, base + i, p)
                                 for i, p in enumerate(block)])
            machine.state_height = height
            base += len(block)
            seen.append(self.state(machine) + (machine.expired,))
        assert seen == self.EXPIRY_PINS
        assert machine.reply_outcome((1, 6)) == "rejected"
