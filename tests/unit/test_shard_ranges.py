"""Key-space partitioning: ShardMap, key_point, and the range splitter."""

from __future__ import annotations

import pytest

from repro.chain.execution import (KEYSPACE, KVStateMachine, MAX_VALUE_BYTES,
                                   key_point, validate_write)
from repro.chain.transaction import Transaction
from repro.errors import ConfigurationError, StateMachineError
from repro.shard.ranges import ShardMap


def _tx(seq: int, payload: str) -> Transaction:
    return Transaction(client_id=1, tx_id=seq, payload=payload,
                       payload_size=0, created_at=0.0)


class TestKeyPoint:
    def test_stable_and_in_range(self):
        for key in ("a", "k0", "user/42", ""):
            point = key_point(key)
            assert point == key_point(key)
            assert 0 <= point < KEYSPACE

    def test_spreads_keys(self):
        points = {key_point(f"k{i}") for i in range(256)}
        assert len(points) == 256


class TestShardMap:
    def test_uniform_covers_keyspace(self):
        for shards in (1, 2, 3, 8):
            smap = ShardMap.uniform(shards)
            assert smap.n_shards == shards
            assert smap.boundaries[-1] == KEYSPACE
            lo, _ = smap.range_of(0)
            assert lo == 0
            # Ranges tile [0, KEYSPACE) with no gap or overlap.
            for s in range(shards - 1):
                assert smap.range_of(s)[1] == smap.range_of(s + 1)[0]

    def test_placement_matches_ranges(self):
        smap = ShardMap.uniform(4)
        for i in range(200):
            key = f"k{i}"
            shard = smap.shard_of(key)
            lo, hi = smap.range_of(shard)
            assert lo <= key_point(key) < hi

    def test_single_shard_owns_everything(self):
        smap = ShardMap.uniform(1)
        assert all(smap.shard_of(f"k{i}") == 0 for i in range(100))

    def test_invalid_maps_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardMap.uniform(0)
        with pytest.raises(ConfigurationError):
            ShardMap((1, 2, 3))  # does not end at KEYSPACE
        with pytest.raises(ConfigurationError):
            ShardMap((5, 5, KEYSPACE))  # not strictly ascending
        with pytest.raises(ConfigurationError):
            ShardMap.uniform(2).range_of(2)


class TestItemsInRangeAndSplitter:
    def test_items_in_range_is_deterministic_and_sorted(self):
        machine = KVStateMachine()
        for i in range(50):
            machine.apply_batch([_tx(i, f"SET k{i} v{i}")])
        items = machine.items_in_range(0, KEYSPACE)
        assert items == tuple(sorted(items))
        assert len(items) == 50
        assert items == machine.items_in_range(0, KEYSPACE)

    def test_split_items_partitions_state(self):
        machine = KVStateMachine()
        for i in range(80):
            machine.apply_batch([_tx(i, f"SET k{i} v{i}")])
        smap = ShardMap.uniform(4)
        slices = smap.split_items(machine)
        assert len(slices) == 4
        # Every item lands in exactly one slice, on the shard owning it.
        seen = {}
        for shard, chunk in enumerate(slices):
            for key, value in chunk:
                assert key not in seen
                seen[key] = value
                assert smap.shard_of(key) == shard
        assert seen == {f"k{i}": f"v{i}" for i in range(80)}


class TestTypedWriteValidation:
    def test_empty_key_rejected(self):
        with pytest.raises(StateMachineError):
            validate_write("", "v")
        machine = KVStateMachine()
        with pytest.raises(StateMachineError):
            machine.apply_batch([_tx(1, "SET  v")])

    def test_oversized_value_rejected(self):
        validate_write("k", "x" * MAX_VALUE_BYTES)  # at the limit: fine
        with pytest.raises(StateMachineError):
            validate_write("k", "x" * (MAX_VALUE_BYTES + 1))

    def test_valid_write_passes(self):
        validate_write("k", "v")
