"""``TxKeySet`` answers exactly what a ``set`` of the same keys answers.

The set holds each key in one of two places (an array indexed by
transaction id, or a set of the rest), chosen by the shape of the ids, so
every shape is driven here against a ``set`` (and, tagged,
a ``dict`` of first tags) as the oracle: one global counter with the
client derived from the id, per-client counters, soak's sparse ids (one
counter, random clients, gaps where a bounded mempool dropped some),
client 0, ids past 2**32 and 2**63, negative ids, repeats inside a
batch, runs that are not contiguous, ids too sparse for the array, and
``clear()``.  Ids are ints at the boundary (a ``Transaction`` or a batch
refuses any other), so every key here is a pair of ints.

:func:`checked_key_sets` swaps an oracle-checked subclass into every
holder; ``tests/integration/test_event_core_golden.py`` runs each pinned
golden run under it, so every transaction stream those runs make goes
through both.
"""

from __future__ import annotations

import contextlib
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.chain.transaction import (MIN_SLOTS, SLOTS_PER_KEY, Transaction,
                                     TxBatch, TxKeySet)


class CheckedTxKeySet(TxKeySet):
    """A ``TxKeySet`` that checks every answer against a ``set`` (and its
    tags against a ``dict`` of each key's first tag) kept beside it."""

    __slots__ = ("oracle",)

    def __init__(self, tagged: bool = False) -> None:
        self.oracle: dict = {}
        super().__init__(tagged)

    def _check(self) -> None:
        assert len(self) == len(self.oracle)

    def __contains__(self, key) -> bool:
        answer = super().__contains__(key)
        assert answer == (key in self.oracle), key
        return answer

    def add(self, key, tag: int = 0) -> bool:
        expected = key not in self.oracle
        assert super().add(key, tag) == expected, key
        if expected:
            self.oracle[key] = tag
        elif self._tags is not None:
            assert self.tag_of(key) == self.oracle[key], key
        self._check()
        return expected

    def add_new(self, client_ids, tx_ids, tag: int = 0) -> bool:
        keys = list(zip(client_ids, tx_ids))
        expected = len(set(keys)) == len(keys) and \
            self.oracle.keys().isdisjoint(keys)
        assert super().add_new(client_ids, tx_ids, tag) == expected, keys
        if expected:
            self.oracle.update(dict.fromkeys(keys, tag))
        self._check()
        return expected

    def clear(self) -> None:
        super().clear()
        self.oracle = {}


@contextlib.contextmanager
def checked_key_sets():
    """Every ``TxKeySet`` a holder makes inside is a :class:`CheckedTxKeySet`."""
    with mock.patch("repro.client.workload.TxKeySet", CheckedTxKeySet), \
            mock.patch("repro.harness.metrics.TxKeySet", CheckedTxKeySet), \
            mock.patch("repro.harness.invariants.TxKeySet", CheckedTxKeySet):
        yield


# ----------------------------------------------------------------------
# Key shapes
# ----------------------------------------------------------------------
def global_counter(start: int, n: int, clients: int) -> list:
    return [(i % clients, i) for i in range(start, start + n)]


def soak_sparse(seed: int, start: int, n: int) -> list:
    """One counter, a random client each, and gaps (dropped arrivals)."""
    rng = random.Random(seed)
    ids = [i for i in range(start, start + 2 * n) if rng.random() < 0.6]
    return [(rng.randrange(50_000), i) for i in ids]


def per_client(clients: int, first: int, n: int, base: int) -> list:
    return [(base + c, first + k) for k in range(n) for c in range(clients)]


odd_id = st.one_of(
    st.integers(-3, 2**33),
    st.sampled_from([2**32, 2**32 + 7, 2**62, 2**63, 2**64 - 1]))
odd_client = st.one_of(st.integers(-2, 70), st.sampled_from(
    [0, 10_000, 50_000, 2**63 - 2, 2**63 - 1, 2**63, 2**64 - 1]))

batch = st.one_of(
    st.builds(global_counter, st.integers(0, 3 * MIN_SLOTS),
              st.integers(1, 300), st.sampled_from([1, 16, 64])),
    st.builds(soak_sparse, st.integers(0, 99), st.integers(0, 2000),
              st.integers(1, 200)),
    st.builds(per_client, st.integers(1, 5), st.sampled_from([0, 1]),
              st.integers(1, 30), st.sampled_from([0, 10_000, 50_000])),
    st.lists(st.tuples(odd_client, odd_id), min_size=1, max_size=10),
    # Repeats inside a batch and runs that do not rise.
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)), min_size=1,
             max_size=40),
)

operation = st.one_of(
    st.tuples(st.just("add_new"), batch),
    st.tuples(st.just("add"), batch),
    st.tuples(st.just("replay"), st.integers(0, 10_000)),
    st.tuples(st.just("clear"), st.none()))


def columns(keys) -> tuple:
    """The client and id columns of a batch of ``keys``, as a ``TxBatch``
    holds them (arrays), or tuples where no one array holds them."""
    try:
        batch = TxBatch.of([Transaction(client_id=c, tx_id=i)
                            for c, i in keys])
    except ValueError:
        return tuple(zip(*keys))
    return batch.client_ids, batch.tx_ids


@settings(max_examples=300, deadline=None)
@given(tagged=st.booleans(), ops=st.lists(operation, max_size=20),
       probes=st.lists(st.tuples(odd_client, odd_id), max_size=20))
def test_the_key_set_answers_as_a_set(tagged, ops, probes):
    keys = CheckedTxKeySet(tagged)
    offered: list = []
    for tag, (kind, arg) in enumerate(ops):
        if kind == "add_new":
            offered.append(arg)
            keys.add_new(*columns(arg), tag)
        elif kind == "add":
            offered.append(arg)
            for key in arg:
                keys.add(key, tag)
        elif kind == "replay" and offered:
            # A batch offered before, again: all duplicates, or part.
            again = offered[arg % len(offered)]
            keys.add_new(*columns(again[arg % (len(again) + 1):]), tag)
        elif kind == "clear":
            keys.clear()
    for key in probes + [key for keys_ in offered for key in keys_]:
        assert (key in keys) == (key in keys.oracle)
    assert set(keys) == set(keys.oracle)
    assert len(keys) == len(keys.oracle)
    if tagged:
        for key, tag in keys.oracle.items():
            assert keys.tag_of(key) == tag


def test_each_shape_is_held_where_it_is_cheapest():
    """A global counter fills the array; per-client counters fill it for
    the first client to reach each id and the set for the others; ids too
    sparse for the array stay out of it."""
    keys = TxKeySet()
    assert keys.add_new(*columns(global_counter(1, 5000, 16)))
    assert not keys._rest
    assert keys._size < 2 * 5000 + MIN_SLOTS
    clients = TxKeySet()
    for k in range(1, 51):
        for client in range(10_000, 10_020):
            assert clients.add((client, k))
    assert type(clients._rest) is set and len(clients._rest) == 19 * 50
    assert [clients._slots[k] for k in range(1, 51)] == [10_000] * 50
    sparse = TxKeySet()
    for k in range(1, 200):
        assert sparse.add((7, 1_000 * k))
    assert sparse._size <= SLOTS_PER_KEY * 200 + MIN_SLOTS
    assert len(sparse) == 199 and set(sparse) == {(7, 1_000 * k)
                                                  for k in range(1, 200)}


def test_a_batch_over_taken_slots_is_held_whole():
    """Two clients' own counters from 0 in two blocks: the second block's
    slots are taken, so it goes to ``_rest`` in one piece, tags and
    all."""
    keys = TxKeySet(tagged=True)
    assert keys.add_new(*columns([(3, i) for i in range(5)]), 1)
    assert keys.add_new(*columns([(4, i) for i in range(1000)]), 2)
    assert not keys.add_new(*columns([(4, 999), (4, 1000)]), 3)
    assert (keys.tag_of((3, 4)), keys.tag_of((4, 4))) == (1, 2)
    assert len(keys) == 1005 and (4, 1000) not in keys


def test_clear_forgets_and_shrinks():
    keys = TxKeySet()
    keys.add_new(*columns(global_counter(1, 10 * MIN_SLOTS, 64)))
    keys.add((10_000, 1))
    keys.add((-1, -1))
    keys.clear()
    assert len(keys) == 0 and list(keys) == []
    assert keys._size == MIN_SLOTS
    assert (1, 1) not in keys and (-1, -1) not in keys
    assert keys.add((1, 1))
