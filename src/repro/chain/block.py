"""Blocks and the genesis block.

A block is ``⟨txs, op, h_p⟩`` (paper Sec. 4.2) annotated with the view at
which it was produced and its height.  ``op`` is the execution results,
one digest over the parent hash and the ordered batch
(:func:`repro.chain.execution.execute_transactions`) — the leader executes
the batch before proposing and includes the outcome for others to verify
(paper Sec. 6.1, second responsiveness fix), which is what lets a client
trust a single reply.

Block hashes commit to every field, the batch through
:func:`~repro.chain.transaction.tx_list_digest` (the digest ``op`` is
built on too), so hash links authenticate the whole ancestry.  A backup
votes only for a block whose :attr:`Block.results_valid` holds: ``op``
re-derived from that same batch digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.hashing import GENESIS_HASH, cached_property, digest_of
from repro.chain.execution import execution_results
from repro.chain.transaction import EMPTY_BATCH, TxBatch, tx_list_digest
from repro.net.message import HASH_BYTES

#: A block's serialized bytes besides its transactions: ``op``, the
#: parent hash, view, height and proposer.
BLOCK_HEADER_BYTES = 2 * HASH_BYTES + 8 + 8 + 4


@dataclass(frozen=True)
class Block:
    """An immutable block in the hash chain; its batch is a
    :class:`~repro.chain.transaction.TxBatch`."""

    txs: TxBatch
    op: str
    parent_hash: str
    view: int
    height: int
    proposer: int = -1

    @cached_property
    def batch_digest(self) -> str:
        """:func:`~repro.chain.transaction.tx_list_digest` of the batch,
        computed once for :attr:`hash` and :attr:`results_valid`.  A
        leader's ``_build_block`` seeds this memo with the digest it built
        ``op`` on, which must be ``tx_list_digest(txs)`` of this batch."""
        return tx_list_digest(self.txs)

    @cached_property
    def hash(self) -> str:
        """The block's content hash (H(b) in the paper).

        Memoized: blocks are immutable and shared, so each block is
        canonicalized and hashed exactly once — at first use, typically
        right after construction — no matter how many signatures, checker
        calls, and network sends reference it afterwards.
        """
        if self.height == 0:
            return GENESIS_HASH
        return digest_of(self.batch_digest, self.op, self.parent_hash,
                         self.view, self.height, self.proposer)

    @cached_property
    def results_valid(self) -> bool:
        """True when ``op == executeTx(txs, h_p)`` (paper Sec. 4.2): the
        execution results every backup re-derives before it votes.

        Memoized like :attr:`hash`: a pure function of the immutable
        block, so every replica that checks the one shared block object
        gets the answer its own re-execution would give.  Each replica
        still pays the simulated CPU time of the check where it makes it.
        """
        return self.op == execution_results(self.parent_hash,
                                            self.batch_digest)

    @cached_property
    def _wire_size(self) -> int:
        """:data:`BLOCK_HEADER_BYTES` and the batch's wire size; a
        leader's ``_build_block`` seeds this memo where the batch digest's
        pass already summed the payloads."""
        return BLOCK_HEADER_BYTES + self.txs.wire_size()

    def wire_size(self) -> int:
        """Serialized size: header fields + all transactions.

        Memoized like :attr:`hash` — summing per-transaction sizes on every
        send dominated benchmark profiles before caching.
        """
        return self._wire_size

    def __repr__(self) -> str:  # keep logs readable
        return (
            f"Block(h={self.height}, v={self.view}, txs={self.txs.n}, "
            f"hash={self.hash[:8]}, parent={self.parent_hash[:8]})"
        )


def genesis_block() -> Block:
    """The hard-coded genesis block G (height 0, view 0)."""
    return Block(txs=EMPTY_BATCH, op="genesis", parent_hash="", view=0,
                 height=0, proposer=-1)


def create_leaf(
    txs: TxBatch,
    op: str,
    parent: Block,
    view: int,
    proposer: int,
) -> Block:
    """The paper's ``createLeaf(txs, op, h_p)``: extend ``parent``.

    ``Transaction`` objects are taken as their batch: the snapshot probe
    in benchmarks/perf/probes.py builds its leaf from a tuple of them."""
    if txs.__class__ is not TxBatch:
        txs = TxBatch.of(txs)
    return Block(
        txs=txs,
        op=op,
        parent_hash=parent.hash,
        view=view,
        height=parent.height + 1,
        proposer=proposer,
    )


__all__ = ["Block", "BLOCK_HEADER_BYTES", "genesis_block", "create_leaf"]
