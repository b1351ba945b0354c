"""Property-based tests (hypothesis) for the ledger substrate."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.chain.block import create_leaf, genesis_block
from repro.chain.execution import KVStateMachine, execute_transactions
from repro.chain.store import BlockStore
from repro.chain.transaction import Transaction, TxBatch
from repro.crypto.hashing import digest_of


transactions = st.builds(
    Transaction,
    client_id=st.integers(min_value=0, max_value=7),
    tx_id=st.integers(min_value=0, max_value=10_000),
    payload=st.text(max_size=24),
    payload_size=st.integers(min_value=0, max_value=64),
)

tx_batches = st.lists(transactions, max_size=6).map(TxBatch.of)


class TestHashingProperties:
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=10),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=5), children, max_size=4),
        max_leaves=20,
    ))
    @settings(max_examples=80)
    def test_digest_is_deterministic(self, value):
        assert digest_of(value) == digest_of(value)

    @given(st.lists(st.integers(), min_size=1, max_size=8))
    @settings(max_examples=80)
    def test_digest_injective_on_permutations(self, values):
        rotated = values[1:] + values[:1]
        if rotated != values:
            assert digest_of(values) != digest_of(rotated)


class TestChainProperties:
    @given(st.lists(tx_batches, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_heights_and_ancestry_invariants(self, batches):
        store = BlockStore()
        parent = store.genesis
        for view, txs in enumerate(batches, start=1):
            op = execute_transactions(txs, parent.hash)
            block = create_leaf(txs, op, parent, view=view, proposer=view % 3)
            store.add(block)
            parent = block
        # Walking ancestors of the tip reaches genesis in exactly
        # height steps, and every block extends all its ancestors.
        tip = parent
        chain = list(store.ancestors(tip))
        assert len(chain) == tip.height
        assert chain[-1].height == 0 or tip.height == 0
        for ancestor in chain:
            assert store.extends(tip, ancestor.hash)
            assert not store.extends(ancestor, tip.hash)

    @given(st.lists(tx_batches, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_commit_prefix_is_total_and_ordered(self, batches):
        store = BlockStore()
        parent = store.genesis
        blocks = []
        for view, txs in enumerate(batches, start=1):
            op = execute_transactions(txs, parent.hash)
            block = create_leaf(txs, op, parent, view=view, proposer=0)
            store.add(block)
            blocks.append(block)
            parent = block
        store.commit(blocks[-1])  # chained commitment of everything
        committed = store.committed_chain()
        heights = [b.height for b in committed]
        assert heights == list(range(len(committed)))
        assert committed[-1].hash == blocks[-1].hash

    @given(tx_batches, tx_batches)
    @settings(max_examples=50)
    def test_execution_results_injective_in_batch(self, a, b):
        ga = genesis_block()
        if [t.key for t in a] != [t.key for t in b] or \
                [t.payload for t in a] != [t.payload for t in b]:
            assert execute_transactions(a, ga.hash) != \
                execute_transactions(b, ga.hash) or (a == b)
        else:
            assert execute_transactions(a, ga.hash) == \
                execute_transactions(b, ga.hash)


class TestStateMachineProperties:
    @given(st.lists(transactions, max_size=20))
    @settings(max_examples=50)
    def test_replay_converges(self, txs):
        a, b = KVStateMachine(), KVStateMachine()
        a.apply_batch(txs)
        b.apply_batch(txs)
        assert a.state_root == b.state_root
        assert a.applied == b.applied == len(txs)

    @given(st.lists(transactions, min_size=2, max_size=10, unique_by=lambda t: t.key))
    @settings(max_examples=50)
    def test_order_sensitivity(self, txs):
        a, b = KVStateMachine(), KVStateMachine()
        a.apply_batch(txs)
        b.apply_batch(list(reversed(txs)))
        # Reversing a sequence of distinct transactions changes the root
        # (the root commits to history, not just final state).
        assert a.state_root != b.state_root
