"""Per-node block store and chain queries.

Holds every block a node has received, indexed by hash, and answers the
structural questions the protocols ask: ancestry (``b1 > b2`` in the
paper's notation), conflicts, missing ancestors (for block
synchronization), and the committed prefix.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.chain.block import Block, genesis_block
from repro.chain.transaction import TxBatch, TxKeySet
from repro.errors import ChainError
from repro.storage.journal import JournalRecord, WriteAheadJournal

#: A store's committed-key index until it indexes a key: a store whose
#: replica gets no client request keeps no key set's slots.
_NO_KEYS: frozenset = frozenset()


class BlockStore:
    """Hash-indexed block DAG rooted at genesis.

    Only the *committed prefix* is durable: each commitment appends the
    newly committed path to a write-ahead journal (one record per block,
    one fsync/commit barrier per batch), and checkpoint installs are
    journaled the same way.  Uncommitted blocks, orphans, and provisional
    state are volatile and die with a power cut; on
    :meth:`power_restore` the store rebuilds exactly the durable chain.
    """

    def __init__(self, journaled: bool = True) -> None:
        self.journal = WriteAheadJournal("block-store", journaled=journaled)
        self.journal.restore_fn = self._restore_from_records
        self.genesis = genesis_block()
        self._blocks: dict[str, Block] = {self.genesis.hash: self.genesis}
        self._committed: list[Block] = [self.genesis]
        self._committed_hashes: set[str] = {self.genesis.hash}
        #: When True, committed transaction keys are indexed (client-reply
        #: deduplication); off by default to keep large runs lean.
        self.track_txs = False
        self._committed_tx_keys = _NO_KEYS
        # Provisional blocks: accepted before their parent (orphans) or
        # chained onto a provisional ancestor.  ``_orphans`` maps parent
        # hash -> children awaiting height validation; ``_provisional``
        # marks every block whose height is not yet anchored to a
        # validated chain.
        self._orphans: dict[str, list[str]] = {}
        self._provisional: set[str] = set()
        #: Orphans evicted because their claimed height disagreed with the
        #: parent that eventually arrived (observability for tests/chaos).
        self.orphans_rejected = 0

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def add(self, block: Block) -> None:
        """Insert a block (idempotent).

        Height consistency against the parent is enforced immediately when
        the parent is known, and *retroactively* when the parent arrives
        later: blocks whose height is not yet anchored to a validated
        chain stay *provisional* (tracked by parent hash), and when the
        missing ancestor materializes, any provisional descendant whose
        claimed height disagrees with it is evicted — the whole subtree,
        since its heights were derived from the bogus one.  The late path
        evicts rather than raises: the inserter of the honest parent is
        not the author of the bad orphan.
        """
        if block.hash in self._blocks:
            return
        parent = self._blocks.get(block.parent_hash)
        if parent is not None and block.height != parent.height + 1:
            raise ChainError(
                f"block at height {block.height} extends parent at height {parent.height}"
            )
        self._blocks[block.hash] = block
        if block.height != 0 and \
                (parent is None or parent.hash in self._provisional):
            # Unknown parent, or a parent whose own height is still
            # unvalidated: this block's height is derived, not anchored.
            self._orphans.setdefault(block.parent_hash, []).append(block.hash)
            self._provisional.add(block.hash)
        elif parent is not None and block.hash in self._orphans:
            self._validate_orphans_of(block)

    def _validate_orphans_of(self, parent: Block) -> None:
        """Re-check provisional blocks waiting on ``parent`` (which is now
        materialized and height-validated): evict any subtree whose height
        does not chain from it; anchor — and recurse into — the rest."""
        stack = [parent]
        while stack:
            anchor = stack.pop()
            waiting = self._orphans.pop(anchor.hash, None)
            if not waiting:
                continue
            for orphan_hash in waiting:
                orphan = self._blocks.get(orphan_hash)
                if orphan is None:
                    self._provisional.discard(orphan_hash)
                    continue  # already pruned by compaction
                if orphan.height != anchor.height + 1:
                    self._evict_orphan_branch(orphan_hash)
                else:
                    self._provisional.discard(orphan_hash)
                    stack.append(orphan)

    def _evict_orphan_branch(self, block_hash: str) -> None:
        stack = [block_hash]
        while stack:
            current = stack.pop()
            if current in self._committed_hashes:
                continue  # never evict committed state
            self._blocks.pop(current, None)
            self._provisional.discard(current)
            self.orphans_rejected += 1
            stack.extend(self._orphans.pop(current, ()))

    def get(self, block_hash: str) -> Optional[Block]:
        """Fetch a block by hash, or ``None`` if unknown."""
        return self._blocks.get(block_hash)

    def __contains__(self, block_hash: str) -> bool:
        return block_hash in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def ancestors(self, block: Block) -> Iterator[Block]:
        """Walk parents from ``block`` (exclusive) back toward genesis,
        stopping at the first unknown parent."""
        current = self._blocks.get(block.parent_hash)
        while current is not None:
            yield current
            if current.height == 0:
                return
            current = self._blocks.get(current.parent_hash)

    def extends(self, descendant: Block, ancestor_hash: str) -> bool:
        """Paper's ``b1 > h``: does ``descendant`` extend the block with
        hash ``ancestor_hash``?"""
        if descendant.hash == ancestor_hash:
            return False
        if descendant.parent_hash == ancestor_hash:
            return True
        return any(b.hash == ancestor_hash for b in self.ancestors(descendant))

    def conflicts(self, b1: Block, b2: Block) -> bool:
        """Paper Sec. 4.2: b1 conflicts with b2 iff neither extends the other."""
        if b1.hash == b2.hash:
            return False
        return not (self.extends(b1, b2.hash) or self.extends(b2, b1.hash))

    def has_full_ancestry(self, block: Block) -> bool:
        """True iff the block's ancestry is locally anchored: the parent
        walk reaches genesis or any already-committed block (after
        compaction, committed checkpoints anchor ancestry in place of
        genesis)."""
        if block.height == 0 or block.hash in self._committed_hashes:
            return True
        return self.missing_ancestor_hash(block) is None

    def missing_ancestor_hash(self, block: Block) -> Optional[str]:
        """The first unknown ancestor hash (what block-sync must pull);
        ``None`` when the ancestry is anchored locally."""
        current = block
        while current.height != 0:
            if current.hash in self._committed_hashes:
                return None  # anchored at the committed prefix
            parent = self._blocks.get(current.parent_hash)
            if parent is None:
                return current.parent_hash
            current = parent
        return None

    # ------------------------------------------------------------------
    # Commitment
    # ------------------------------------------------------------------
    def commit(self, block: Block) -> list[Block]:
        """Commit ``block`` and all uncommitted ancestors (chained
        commitment, paper Sec. 4.4 "Block synchronization").

        Returns newly committed blocks in chain order.  Raises
        :class:`ChainError` if ``block`` does not extend the committed tip —
        that would be a safety violation and tests rely on it being loud.
        """
        committed = self._committed_hashes
        if block.hash in committed:
            return []
        # One parent walk collects the uncommitted path and proves it is
        # anchored: at a committed block, or at genesis (height 0).
        blocks = self._blocks
        path = [block]
        anchored = block.height == 0
        parent = blocks.get(block.parent_hash)
        while parent is not None:
            if parent.hash in committed:
                anchored = True
                break
            path.append(parent)
            if parent.height == 0:
                anchored = True
                break
            parent = blocks.get(parent.parent_hash)
        if not anchored:
            raise ChainError(f"cannot commit {block}: ancestry incomplete")
        tip = self._committed[-1]
        path.reverse()
        if path[0].parent_hash != tip.hash:
            raise ChainError(
                f"commit of {block} does not extend committed tip {tip} — safety violation"
            )
        self._committed.extend(path)
        add = committed.add
        for b in path:
            add(b.hash)
        if self.track_txs:
            for b in path:
                self._index_txs(b.txs)
        # One durable batch per commitment: a cut mid-fsync tears the last
        # block of a chained commit, a cut before the commit marker loses
        # the whole batch.  With no power-cut controller attached the
        # three calls would only count the records (the journal's passive
        # mode), so that is all this does.
        journal = self.journal
        if journal.controller is None:
            journal._seq += len(path)
            return path
        for b in path:
            journal.write("commit", b.hash, b)
        journal.fsync()
        journal.commit()
        return path

    @property
    def committed_tip(self) -> Block:
        """Highest committed block."""
        return self._committed[-1]

    def committed_chain(self) -> list[Block]:
        """The committed prefix, genesis first."""
        return list(self._committed)

    def is_committed(self, block_hash: str) -> bool:
        """Has this hash been committed locally?"""
        return block_hash in self._committed_hashes

    def is_committed_tx(self, tx_key: tuple[int, int]) -> bool:
        """Has this transaction been committed (requires ``track_txs``)?"""
        return tx_key in self._committed_tx_keys

    def _index_txs(self, txs: TxBatch) -> None:
        """Index a committed batch's keys: its two columns at once, or key
        by key if one was committed before (a replayed request)."""
        keys = self._committed_tx_keys
        if keys is _NO_KEYS:
            keys = self._committed_tx_keys = TxKeySet()
        if not keys.add_new(txs.client_ids, txs.tx_ids):
            for key in txs.keys():
                keys.add(key)

    # ------------------------------------------------------------------
    # Checkpointing (certified log compaction, see repro.chain.checkpoint)
    # ------------------------------------------------------------------
    @property
    def compaction_base(self) -> Block:
        """The oldest retained committed block (genesis before compaction)."""
        return self._committed[0]

    def compact(self, retain: int) -> int:
        """Prune committed blocks older than the last ``retain`` ones.

        Pruned blocks are dropped from the block index and the committed
        list; their hashes stay in the committed set so ancestry anchoring,
        idempotent commits, and stale-message filtering keep working.
        Returns the number of blocks pruned.
        """
        if retain < 1:
            raise ChainError("compaction must retain at least one block")
        if len(self._committed) <= retain:
            return 0
        pruned = self._committed[:-retain]
        self._committed = self._committed[-retain:]
        for block in pruned:
            if block.height != 0:
                self._blocks.pop(block.hash, None)
        return len([b for b in pruned if b.height != 0])

    def install_checkpoint(self, block: Block) -> None:
        """Adopt a certified checkpoint block as the new committed base.

        Used for state transfer: the caller has verified an f+1 checkpoint
        certificate for ``block``.  The local committed chain must be
        behind the checkpoint (installing one that conflicts with local
        commits would be a safety violation and raises loudly).
        """
        if block.height <= self.committed_tip.height:
            if self.is_committed(block.hash):
                return  # already have it
            raise ChainError(
                f"checkpoint at height {block.height} conflicts with local "
                f"committed tip {self.committed_tip}"
            )
        self._blocks[block.hash] = block
        self._committed.append(block)
        self._committed_hashes.add(block.hash)
        if self.track_txs:
            self._index_txs(block.txs)
        self.journal.log("checkpoint", block.hash, block)
        self._validate_orphans_of(block)

    # ------------------------------------------------------------------
    # Power-cut durability
    # ------------------------------------------------------------------
    def power_restore(self):
        """Reboot after a power cut: reload exactly the durable committed
        chain (no-op when no cut is pending).  Returns the journal's
        :class:`~repro.storage.journal.RecoveryReport`, or ``None``."""
        return self.journal.power_restore()

    def _restore_from_records(self, records: list[JournalRecord]) -> None:
        """Rebuild committed state from the surviving journal records.

        Everything volatile — uncommitted blocks, orphans, provisional
        marks — is gone.  With journal discipline on, the survivors are a
        clean prefix of commit/checkpoint batches; with it off, torn and
        out-of-order records come back too, and the resulting "chain" can
        have holes — which is exactly what the ``durable-prefix``
        invariant exists to catch.
        """
        self._blocks = {self.genesis.hash: self.genesis}
        self._committed = [self.genesis]
        self._committed_hashes = {self.genesis.hash}
        self._committed_tx_keys = _NO_KEYS
        self._orphans = {}
        self._provisional = set()
        for record in records:
            block = record.value
            if block.hash in self._committed_hashes:
                continue
            self._blocks[block.hash] = block
            self._committed.append(block)
            self._committed_hashes.add(block.hash)
            if self.track_txs:
                self._index_txs(block.txs)


__all__ = ["BlockStore"]
