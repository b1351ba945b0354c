"""Unit tests for certified application snapshots
(:mod:`repro.chain.snapshot`).

A snapshot's authority comes entirely from its checkpoint certificate:
``validate`` must reject any tampering with the carried state — items,
history digest, applied count — and any certificate/block mismatch.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chain.block import create_leaf, genesis_block
from repro.chain.checkpoint import combine_checkpoint_votes, make_checkpoint_vote
from repro.chain.execution import KVStateMachine
from repro.chain.snapshot import Snapshot, build_snapshot
from repro.chain.transaction import Transaction
from repro.crypto.keys import Keyring, generate_keypairs


@pytest.fixture
def world():
    pairs = generate_keypairs(range(4), seed=3)
    return pairs, Keyring.from_keypairs(pairs)


def certified_snapshot(pairs, n_txs: int = 4) -> Snapshot:
    """A block, a machine that executed it, and an f+1 certificate."""
    machine = KVStateMachine()
    txs = tuple(Transaction(client_id=0, tx_id=i, payload=f"SET k{i} v{i}")
                for i in range(1, n_txs + 1))
    block = create_leaf(txs, "op", genesis_block(), view=1, proposer=0)
    machine.apply_batch(txs)
    machine.state_height = block.height
    votes = [make_checkpoint_vote(pairs[i].private, block.height, block.hash,
                                  machine.state_root) for i in range(2)]
    cert = combine_checkpoint_votes(votes, threshold=2)
    return build_snapshot(block, machine, cert)


class TestValidate:
    def test_honest_snapshot_validates(self, world):
        pairs, ring = world
        snap = certified_snapshot(pairs)
        assert snap.validate(ring, threshold=2)
        assert snap.height == snap.block.height

    def test_tampered_items_rejected(self, world):
        pairs, ring = world
        snap = certified_snapshot(pairs)
        evil = replace(snap, items=snap.items[:-1] + (("k4", "stolen"),))
        assert not evil.validate(ring, threshold=2)

    def test_tampered_history_rejected(self, world):
        pairs, ring = world
        snap = certified_snapshot(pairs)
        assert not replace(snap, history="f" * 64).validate(ring, 2)

    def test_tampered_applied_count_rejected(self, world):
        pairs, ring = world
        snap = certified_snapshot(pairs)
        assert not replace(snap, applied=snap.applied + 1).validate(ring, 2)

    def test_root_swap_rejected(self, world):
        """Recomputing a root over tampered state and carrying *that* root
        still fails: the certificate signed the original root."""
        pairs, ring = world
        snap = certified_snapshot(pairs)
        other = KVStateMachine()
        other.apply_batch((Transaction(client_id=9, tx_id=9,
                                       payload="SET k v"),))
        items, history, applied = other.snapshot_state()
        evil = replace(snap, items=items, history=history, applied=applied,
                       state_root=other.state_root)
        assert not evil.validate(ring, threshold=2)

    def test_wrong_block_rejected(self, world):
        pairs, ring = world
        snap = certified_snapshot(pairs)
        other = create_leaf((), "op", genesis_block(), view=9, proposer=1)
        assert not replace(snap, block=other).validate(ring, threshold=2)

    def test_rootless_certificate_rejected(self, world):
        """A block-only checkpoint certificate (empty state root) must not
        authenticate an application snapshot."""
        pairs, ring = world
        snap = certified_snapshot(pairs)
        votes = [make_checkpoint_vote(pairs[i].private, snap.block.height,
                                      snap.block.hash) for i in range(2)]
        rootless = combine_checkpoint_votes(votes, threshold=2)
        assert not replace(snap, certificate=rootless).validate(ring, 2)

    def test_under_threshold_rejected(self, world):
        pairs, ring = world
        snap = certified_snapshot(pairs)
        assert snap.validate(ring, threshold=2)
        assert not snap.validate(ring, threshold=3)


class TestInstall:
    def test_install_reproduces_certified_root(self, world):
        pairs, _ = world
        snap = certified_snapshot(pairs)
        machine = KVStateMachine()
        root = machine.install_snapshot(snap.items, snap.history,
                                        snap.applied, snap.height)
        assert root == snap.state_root
        assert machine.state_height == snap.height
        assert machine.get("k1") == "v1"

    def test_installed_machine_continues_identically(self, world):
        """Executing past an installed snapshot yields the same root as a
        machine that replayed everything — snapshots are transparent."""
        pairs, _ = world
        snap = certified_snapshot(pairs)
        replayed = KVStateMachine()
        replayed.apply_batch(snap.block.txs)
        installed = KVStateMachine()
        installed.install_snapshot(snap.items, snap.history, snap.applied,
                                   snap.height)
        extra = (Transaction(client_id=1, tx_id=99, payload="SET kx vx"),)
        before = replayed.state_root
        assert installed.state_root == before
        replayed.apply_batch(extra)
        installed.apply_batch(extra)
        assert replayed.state_root == installed.state_root != before

    def test_wire_size_counts_items(self, world):
        pairs, _ = world
        small = certified_snapshot(pairs, n_txs=1)
        big = certified_snapshot(pairs, n_txs=12)
        assert big.wire_size() > small.wire_size()
