"""``BlockStore.commit`` against the two walks it was made of.

A commit used to ask ``has_full_ancestry`` (a parent walk to an anchor)
and then collect the uncommitted path with the ``ancestors`` generator (a
second walk); ``add`` re-checked waiting orphans after every insert.  The
oracle below keeps those bodies.  Twin stores driven by the same random
program — blocks added in any order (orphans, and orphans whose claimed
height is wrong), commits of any block, compaction, checkpoint installs,
power cuts at any persistence point and the restores after them — must
return the same paths, raise the same ``ChainError``s and end in the same
state, journal records included.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.chain.block import Block, genesis_block
from repro.chain.store import BlockStore
from repro.chain.transaction import Transaction, TxBatch
from repro.errors import ChainError
from repro.storage.journal import PowerCutController


def ancestors(store, block):
    current = store._blocks.get(block.parent_hash)
    while current is not None:
        yield current
        if current.height == 0:
            return
        current = store._blocks.get(current.parent_hash)


class OracleStore(BlockStore):
    """The store as it was: two walks per commit, a re-check per add."""

    def add(self, block):
        if block.hash in self._blocks:
            return
        parent = self._blocks.get(block.parent_hash)
        if parent is not None and block.height != parent.height + 1:
            raise ChainError(
                f"block at height {block.height} extends parent at height {parent.height}")
        self._blocks[block.hash] = block
        if block.height != 0 and \
                (parent is None or parent.hash in self._provisional):
            self._orphans.setdefault(block.parent_hash, []).append(block.hash)
            self._provisional.add(block.hash)
        elif parent is not None:
            self._validate_orphans_of(block)

    def commit(self, block):
        if block.hash in self._committed_hashes:
            return []
        anchored = block.height == 0 or \
            self.missing_ancestor_hash(block) is None
        if not anchored:
            raise ChainError(f"cannot commit {block}: ancestry incomplete")
        tip = self._committed[-1]
        path = [block]
        for ancestor in ancestors(self, block):
            if ancestor.hash in self._committed_hashes:
                break
            path.append(ancestor)
        path.reverse()
        if path[0].parent_hash != tip.hash:
            raise ChainError(
                f"commit of {block} does not extend committed tip {tip} — safety violation")
        self._committed.extend(path)
        self._committed_hashes.update(b.hash for b in path)
        if self.track_txs:
            for b in path:
                self._index_txs(b.txs)
        for b in path:
            self.journal.write("commit", b.hash, b)
        self.journal.fsync()
        self.journal.commit()
        return path


def build_pool(shapes):
    pool = [genesis_block()]
    for i, (parent_index, bogus) in enumerate(shapes):
        parent = pool[parent_index % len(pool)]
        pool.append(Block(txs=TxBatch.of([Transaction(9, i)]), op=f"op{i}",
                          parent_hash=parent.hash, view=i + 1,
                          height=parent.height + (2 if bogus else 1)))
    return pool


def snapshot(store):
    journal = store.journal
    return ([b.hash for b in store._committed], sorted(store._committed_hashes),
            sorted(store._blocks), {k: list(v) for k, v in store._orphans.items()},
            sorted(store._provisional), store.orphans_rejected,
            sorted(store._committed_tx_keys), journal.cut_pending,
            [(r.seq, r.op, r.key, r.state, r.torn, r.lost)
             for r in journal.records])


def run(store_class, journaled, track_txs, cut, shapes, program):
    pool = build_pool(shapes)
    store = store_class(journaled=journaled)
    store.track_txs = track_txs
    controller = PowerCutController(cut_index=cut[0], cut_kind=cut[1])
    controller.register(store.journal)
    trace = []
    for op, arg in program:
        block = pool[arg % len(pool)]
        try:
            if op == "add":
                result = store.add(block)
            elif op == "commit":
                result = [b.hash for b in store.commit(block)]
            elif op == "compact":
                result = store.compact(1 + arg % 3)
            elif op == "checkpoint":
                result = store.install_checkpoint(block)
            else:
                result = store.power_restore()
        except ChainError as exc:
            result = ("ChainError", str(exc))
        trace.append((op, arg, result, snapshot(store)))
    return trace, controller.points


shapes = st.lists(st.tuples(st.integers(0, 40),
                            st.sampled_from([False] * 5 + [True])),
                  min_size=1, max_size=16)
programs = st.lists(st.tuples(
    st.sampled_from(["add"] * 5 + ["commit"] * 4
                    + ["compact", "checkpoint", "restore"]),
    st.integers(0, 40)), max_size=50)
cuts = st.tuples(st.one_of(st.none(), st.integers(0, 30)),
                 st.sampled_from([None, "reorder"]))


@given(journaled=st.booleans(), track_txs=st.booleans(), cut=cuts,
       shapes=shapes, program=programs)
@settings(max_examples=300, deadline=None)
def test_one_walk_commits_what_two_walks_did(journaled, track_txs, cut,
                                             shapes, program):
    args = (journaled, track_txs, cut, shapes, program)
    assert run(BlockStore, *args) == run(OracleStore, *args)


def test_the_two_errors_stay_apart():
    """A missing ancestor and a fork below the tip raise different errors,
    on both stores."""
    pool = build_pool([(0, False), (1, False), (0, False)])  # g-a-b, g-c
    for store_class in (BlockStore, OracleStore):
        store = store_class()
        store.add(pool[2])                                   # b without a
        try:
            store.commit(pool[2])
        except ChainError as exc:
            assert "ancestry incomplete" in str(exc)
        else:
            raise AssertionError("committed an unanchored block")
        store.add(pool[1])
        store.add(pool[3])
        store.commit(pool[2])
        try:
            store.commit(pool[3])
        except ChainError as exc:
            assert "does not extend committed tip" in str(exc)
        else:
            raise AssertionError("committed a fork")
