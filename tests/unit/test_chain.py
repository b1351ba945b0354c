"""Unit tests for the ledger substrate: blocks, store, execution."""

from __future__ import annotations

import pytest

from repro.chain.block import Block, create_leaf, genesis_block
from repro.chain.execution import KVStateMachine, execute_transactions
from repro.chain.store import BlockStore
from repro.chain.transaction import (EMPTY_BATCH, TX_METADATA_BYTES,
                                     Transaction, TxBatch, tx_wire_size)
from repro.errors import ChainError


def make_tx(i: int, payload: str = "") -> Transaction:
    return Transaction(client_id=0, tx_id=i, payload=payload)


def chain_of(store: BlockStore, length: int, view_start: int = 1) -> list[Block]:
    """Build and add a linear chain of `length` blocks onto genesis."""
    blocks = []
    parent = store.genesis
    for i in range(length):
        txs = TxBatch.of([make_tx(100 + i)])
        op = execute_transactions(txs, parent.hash)
        block = create_leaf(txs, op, parent, view=view_start + i, proposer=0)
        store.add(block)
        blocks.append(block)
        parent = block
    return blocks


class TestTransaction:
    def test_wire_size_includes_metadata(self):
        tx = Transaction(client_id=1, tx_id=2, payload="", payload_size=256)
        assert tx.wire_size() == TX_METADATA_BYTES + 256
        assert tx_wire_size(256) == 264  # the paper's 256 B + 8 B metadata

    def test_payload_text_counts_when_larger(self):
        tx = Transaction(client_id=1, tx_id=2, payload="x" * 100, payload_size=10)
        assert tx.wire_size() == TX_METADATA_BYTES + 100

    def test_key_identity(self):
        assert make_tx(5).key == (0, 5)


class TestBlock:
    def test_genesis(self):
        g = genesis_block()
        assert g.height == 0
        assert g.hash == genesis_block().hash

    def test_hash_commits_to_fields(self):
        g = genesis_block()
        a = create_leaf((make_tx(1),), "op", g, view=1, proposer=0)
        b = create_leaf((make_tx(1),), "op", g, view=2, proposer=0)
        c = create_leaf((make_tx(2),), "op", g, view=1, proposer=0)
        assert a.hash != b.hash
        assert a.hash != c.hash

    def test_create_leaf_sets_height_and_parent(self):
        g = genesis_block()
        b = create_leaf((), "op", g, view=1, proposer=3)
        assert b.height == 1
        assert b.parent_hash == g.hash
        assert b.proposer == 3

    def test_wire_size_grows_with_txs(self):
        g = genesis_block()
        small = create_leaf((make_tx(1),), "op", g, view=1, proposer=0)
        big = create_leaf(tuple(make_tx(i) for i in range(10)), "op", g, view=1,
                          proposer=0)
        assert big.wire_size() > small.wire_size()


class TestBlockStore:
    def test_add_and_get(self):
        store = BlockStore()
        [b] = chain_of(store, 1)
        assert store.get(b.hash) is b
        assert b.hash in store
        assert len(store) == 2  # genesis + b

    def test_add_is_idempotent(self):
        store = BlockStore()
        [b] = chain_of(store, 1)
        store.add(b)
        assert len(store) == 2

    def test_add_rejects_wrong_height(self):
        store = BlockStore()
        g = store.genesis
        bad = Block(txs=EMPTY_BATCH, op="x", parent_hash=g.hash, view=1, height=5)
        with pytest.raises(ChainError):
            store.add(bad)

    def test_ancestry_and_extends(self):
        store = BlockStore()
        blocks = chain_of(store, 3)
        assert store.extends(blocks[2], blocks[0].hash)
        assert store.extends(blocks[2], store.genesis.hash)
        assert not store.extends(blocks[0], blocks[2].hash)
        assert not store.extends(blocks[0], blocks[0].hash)

    def test_conflicts(self):
        store = BlockStore()
        [a] = chain_of(store, 1, view_start=1)
        fork = create_leaf((make_tx(999),), "op", store.genesis, view=2, proposer=1)
        store.add(fork)
        assert store.conflicts(a, fork)
        assert not store.conflicts(a, a)

    def test_missing_ancestor_detection(self):
        store = BlockStore()
        other = BlockStore()
        blocks = chain_of(other, 3)
        # Add only the tip: its parent is unknown locally.
        store.add(blocks[2])
        assert not store.has_full_ancestry(blocks[2])
        assert store.missing_ancestor_hash(blocks[2]) == blocks[1].hash
        store.add(blocks[1])
        assert store.missing_ancestor_hash(blocks[2]) == blocks[0].hash
        store.add(blocks[0])
        assert store.has_full_ancestry(blocks[2])
        assert store.missing_ancestor_hash(blocks[2]) is None

    def test_commit_chain_order(self):
        store = BlockStore()
        blocks = chain_of(store, 3)
        newly = store.commit(blocks[2])  # chained commitment
        assert [b.hash for b in newly] == [b.hash for b in blocks]
        assert store.committed_tip is blocks[2]
        assert store.is_committed(blocks[0].hash)

    def test_commit_idempotent(self):
        store = BlockStore()
        blocks = chain_of(store, 2)
        store.commit(blocks[1])
        assert store.commit(blocks[1]) == []

    def test_commit_requires_ancestry(self):
        store = BlockStore()
        other = BlockStore()
        blocks = chain_of(other, 2)
        store.add(blocks[1])
        with pytest.raises(ChainError):
            store.commit(blocks[1])

    def test_commit_conflicting_block_is_loud(self):
        store = BlockStore()
        blocks = chain_of(store, 2)
        store.commit(blocks[1])
        fork = create_leaf((make_tx(42),), "op", store.genesis, view=9, proposer=1)
        store.add(fork)
        with pytest.raises(ChainError):
            store.commit(fork)

    def test_tx_tracking_optional(self):
        store = BlockStore()
        blocks = chain_of(store, 1)
        store.commit(blocks[0])
        assert not store.is_committed_tx((0, 100))  # tracking off
        store2 = BlockStore()
        store2.track_txs = True
        blocks2 = chain_of(store2, 1)
        store2.commit(blocks2[0])
        assert store2.is_committed_tx((0, 100))


class TestOrphanValidation:
    """Height consistency must also hold for blocks accepted *before*
    their parent (the out-of-order delivery path block-sync exercises)."""

    def build_remote_chain(self, length: int) -> tuple[BlockStore, list[Block]]:
        remote = BlockStore()
        return remote, chain_of(remote, length)

    def test_orphan_with_honest_height_survives_parent_arrival(self):
        _, blocks = self.build_remote_chain(2)
        store = BlockStore()
        store.add(blocks[1])  # orphan: parent unknown
        store.add(blocks[0])  # parent arrives, heights chain
        assert blocks[1].hash in store
        assert store.orphans_rejected == 0

    def test_orphan_with_bogus_height_is_evicted(self):
        _, blocks = self.build_remote_chain(1)
        store = BlockStore()
        liar = Block(txs=EMPTY_BATCH, op="x", parent_hash=blocks[0].hash,
                     view=2, height=7)  # claims height 7 atop height 1
        store.add(liar)  # accepted provisionally (parent unknown)
        assert liar.hash in store
        store.add(blocks[0])  # parent materializes: 7 != 1 + 1
        assert liar.hash not in store
        assert store.orphans_rejected == 1

    def test_eviction_cascades_through_descendants(self):
        """Blocks chained onto a bogus-height orphan derived their heights
        from it — they go too."""
        _, blocks = self.build_remote_chain(1)
        store = BlockStore()
        liar = Block(txs=EMPTY_BATCH, op="x", parent_hash=blocks[0].hash,
                     view=2, height=7)
        child = Block(txs=EMPTY_BATCH, op="x", parent_hash=liar.hash, view=3, height=8)
        store.add(liar)
        store.add(child)  # consistent with its (bogus) parent
        store.add(blocks[0])
        assert liar.hash not in store and child.hash not in store
        assert store.orphans_rejected == 2

    def test_checkpoint_install_validates_waiting_orphans(self):
        """State transfer installs a block directly; orphans waiting on it
        get the same retroactive height check."""
        remote, blocks = self.build_remote_chain(4)
        store = BlockStore()
        liar = Block(txs=EMPTY_BATCH, op="x", parent_hash=blocks[2].hash,
                     view=9, height=99)
        store.add(liar)
        store.install_checkpoint(blocks[2])
        assert liar.hash not in store
        assert store.orphans_rejected == 1


class TestExecution:
    def test_execute_deterministic(self):
        txs = TxBatch.of((make_tx(1, "SET a 1"), make_tx(2, "SET b 2")))
        assert execute_transactions(txs, "parent") == execute_transactions(txs, "parent")

    def test_execute_depends_on_parent_and_order(self):
        txs = TxBatch.of((make_tx(1, "SET a 1"), make_tx(2, "SET b 2")))
        assert execute_transactions(txs, "p1") != execute_transactions(txs, "p2")
        assert execute_transactions(txs, "p") != execute_transactions(txs[::-1], "p")

    def test_execute_matches_generic_digest_chain(self):
        # execute_transactions is one digest per batch,
        # digest_of("exec", parent, <the batch digest Block.hash uses>),
        # with the encodings inlined; pin it against the generic
        # formulation, including empty and multi-byte payloads.
        from repro.crypto.hashing import digest_of

        txs = TxBatch.of((
            make_tx(1, "SET a 1"),
            make_tx(2, ""),
            make_tx(3, "héllo ⚡ wörld"),
            make_tx(4, "opaque payload"),
        ))
        expected = digest_of("exec", "parent",
                             digest_of([t.key + (t.payload,) for t in txs]))
        assert execute_transactions(txs, "parent") == expected
        assert execute_transactions(EMPTY_BATCH, "parent") == \
            digest_of("exec", "parent", digest_of([]))

    def test_block_hash_matches_generic_encoding(self):
        # Block.hash inlines the tx-digest encoding; pin it against the
        # generic digest_of formulation it replaced.
        from repro.chain.block import Block
        from repro.crypto.hashing import digest_of

        txs = TxBatch.of((make_tx(1, "SET a 1"), make_tx(2, ""),
                          make_tx(3, "ünïcode")))
        block = Block(txs=txs, op="op", parent_hash="p" * 64, view=2,
                      height=5, proposer=1)
        tx_digest = digest_of([t.key + (t.payload,) for t in txs])
        assert block.hash == digest_of(
            tx_digest, block.op, block.parent_hash, block.view,
            block.height, block.proposer,
        )

    def test_kv_machine_applies_sets(self):
        kv = KVStateMachine()
        kv.apply_batch([make_tx(1, "SET name achilles")])
        assert kv.get("name") == "achilles"
        assert kv.applied == 1

    def test_kv_machine_root_changes_per_tx(self):
        kv = KVStateMachine()
        r0 = kv.state_root
        kv.apply_batch([make_tx(1, "opaque payload")])
        r1 = kv.state_root
        assert r0 != r1
        kv.apply_batch([make_tx(2, "SET a 1")])
        assert kv.state_root != r1

    def test_kv_machines_converge_on_same_history(self):
        txs = [make_tx(i, f"SET k{i} v{i}") for i in range(10)]
        a, b = KVStateMachine(), KVStateMachine()
        a.apply_batch(txs)
        b.apply_batch(txs)
        assert a.state_root == b.state_root
