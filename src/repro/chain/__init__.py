"""Ledger substrate: transactions, hash-linked blocks, chain store, and a
key-value state machine for transaction execution.

The block format follows paper Sec. 4.2: a block is ``⟨txs, op, h_p⟩`` — a
transaction batch, execution results, and the parent hash — plus the view
at which it was produced (needed by every certificate).  Blocks link into a
chain rooted at a hard-coded genesis block G; heights are distances to G.
"""

from repro.chain.transaction import Transaction, TxBatch, tx_wire_size
from repro.chain.block import Block, genesis_block, create_leaf
from repro.chain.store import BlockStore
from repro.chain.execution import (
    KVStateMachine,
    compute_state_root,
    execute_transactions,
)
from repro.chain.snapshot import Snapshot, build_snapshot

__all__ = [
    "Transaction",
    "TxBatch",
    "tx_wire_size",
    "Block",
    "genesis_block",
    "create_leaf",
    "BlockStore",
    "KVStateMachine",
    "compute_state_root",
    "execute_transactions",
    "Snapshot",
    "build_snapshot",
]
