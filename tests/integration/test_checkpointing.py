"""Checkpointing: certified log compaction and state transfer."""

from __future__ import annotations

import pytest

from repro.chain.checkpoint import (
    CheckpointCertificate,
    combine_checkpoint_votes,
    make_checkpoint_vote,
)
from repro.crypto.keys import Keyring, generate_keypairs
from repro.crypto.signatures import SignatureList
from repro.errors import ChainError

from tests.conftest import achilles_cluster, fast_config


class TestCheckpointCertificates:
    def test_vote_and_combine(self):
        pairs = generate_keypairs(range(5), seed=4)
        ring = Keyring.from_keypairs(pairs)
        votes = [make_checkpoint_vote(pairs[i].private, 10, "h") for i in range(3)]
        assert all(v.validate(ring) for v in votes)
        cert = combine_checkpoint_votes(votes, threshold=3)
        assert cert.validate(ring, threshold=3)
        assert not cert.validate(ring, threshold=4)

    def test_forged_certificate_fails(self):
        pairs = generate_keypairs(range(5), seed=4)
        ring = Keyring.from_keypairs(pairs)
        votes = [make_checkpoint_vote(pairs[i].private, 10, "h") for i in range(3)]
        cert = combine_checkpoint_votes(votes, threshold=3)
        forged = CheckpointCertificate(height=11, block_hash="h",
                                       signatures=cert.signatures)
        assert not forged.validate(ring, threshold=3)


class TestCompaction:
    def test_store_is_bounded_with_checkpointing(self):
        config = fast_config(f=2, checkpoint_interval=10, checkpoint_retain=15)
        cluster = achilles_cluster(f=2, config=config)
        cluster.start()
        cluster.run(400.0)
        cluster.assert_safety()
        heights = [n.store.committed_tip.height for n in cluster.nodes]
        assert min(heights) >= 50
        for node in cluster.nodes:
            # The block index holds only the retained window (+ a handful
            # of in-flight blocks), not the whole chain.
            assert len(node.store) < 30
            assert node.checkpoint_certs
            assert node.store.compaction_base.height > 0

    def test_no_compaction_without_interval(self):
        cluster = achilles_cluster(f=2)
        cluster.start()
        cluster.run(200.0)
        node = cluster.nodes[0]
        assert node.store.compaction_base.height == 0
        assert len(node.store) >= node.store.committed_tip.height

    def test_compact_store_directly(self):
        from repro.chain.store import BlockStore
        from tests.unit.test_chain import chain_of

        store = BlockStore()
        blocks = chain_of(store, 20)
        store.commit(blocks[-1])
        pruned = store.compact(retain=5)
        assert pruned == 15
        assert store.committed_tip is blocks[-1]
        assert store.get(blocks[0].hash) is None        # pruned
        assert store.is_committed(blocks[0].hash)       # but still final
        assert store.compaction_base is blocks[15]
        assert store.compact(retain=5) == 0             # idempotent
        # Committing on top still works: ancestry anchors at the base.
        from repro.chain.block import create_leaf
        from repro.chain.execution import execute_transactions
        from repro.chain.transaction import TxBatch
        from tests.unit.test_chain import make_tx

        txs = TxBatch.of([make_tx(500)])
        child = create_leaf(txs, execute_transactions(txs, blocks[-1].hash),
                            blocks[-1], view=21, proposer=0)
        store.add(child)
        assert store.has_full_ancestry(child)
        store.commit(child)
        assert store.committed_tip is child

    def test_compact_retain_validation(self):
        from repro.chain.store import BlockStore

        store = BlockStore()
        with pytest.raises(ChainError):
            store.compact(retain=0)


class TestStateTransfer:
    def test_laggard_catches_up_via_checkpoint(self):
        """Partition a node long enough that the others compact past its
        position; on heal it must state-transfer, not replay."""
        config = fast_config(f=2, checkpoint_interval=10, checkpoint_retain=8,
                             base_timeout_ms=20.0)
        cluster = achilles_cluster(f=2, config=config)
        others = set(range(cluster.config.n)) - {4}
        cluster.network.adversary.partition(others, {4})
        cluster.start()
        cluster.run(800.0)
        laggard = cluster.nodes[4]
        assert laggard.store.committed_tip.height == 0
        tip = cluster.nodes[0].store.committed_tip.height
        base = cluster.nodes[0].store.compaction_base.height
        assert base > 0, "the healthy nodes must have compacted"
        cluster.network.adversary.heal_partition()
        cluster.run(800.0)
        cluster.assert_safety()
        assert laggard.store.committed_tip.height >= tip
        assert laggard.store.compaction_base.height > 0
        assert cluster.sim.trace.count("checkpoint_installed") >= 1

    def test_install_conflicting_checkpoint_is_loud(self):
        from repro.chain.block import create_leaf
        from repro.chain.store import BlockStore
        from tests.unit.test_chain import chain_of, make_tx

        store = BlockStore()
        blocks = chain_of(store, 5)
        store.commit(blocks[-1])
        fork = create_leaf((make_tx(77),), "op", store.genesis, view=99,
                           proposer=1)
        with pytest.raises(ChainError):
            store.install_checkpoint(fork)  # height 1 <= tip 5, not committed
