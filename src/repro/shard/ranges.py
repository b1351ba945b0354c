"""Key-space partitioning.

A :class:`ShardMap` carves the 32-bit hash ring of
:func:`repro.chain.execution.key_point` into ``S`` contiguous ranges, one
per consensus group.  Placement is a pure function of the key and the map,
so the router, the 2PC coordinator, the invariant monitors, and the
state-range splitter all agree on where every key lives without talking
to each other.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.chain.execution import KEYSPACE, key_point
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ShardMap:
    """``S`` contiguous hash ranges covering ``[0, 2**32)``.

    ``boundaries`` holds the exclusive upper bound of each shard's range
    in ascending order; the last entry is always :data:`KEYSPACE`.
    """

    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.boundaries or self.boundaries[-1] != KEYSPACE:
            raise ConfigurationError(
                "shard boundaries must end at the keyspace size")
        if list(self.boundaries) != sorted(set(self.boundaries)):
            raise ConfigurationError("shard boundaries must strictly ascend")

    @classmethod
    def uniform(cls, shards: int) -> "ShardMap":
        """Equal-width ranges for ``shards`` groups."""
        if shards <= 0:
            raise ConfigurationError(f"need at least one shard, got {shards}")
        step = KEYSPACE // shards
        bounds = tuple(step * (i + 1) for i in range(shards - 1)) + (KEYSPACE,)
        return cls(bounds)

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.boundaries)

    def shard_of(self, key: str) -> int:
        """The shard owning ``key`` (by hash point, binary search)."""
        return bisect_right(self.boundaries, key_point(key))

    def range_of(self, shard: int) -> tuple[int, int]:
        """The ``[lo, hi)`` ring range of ``shard``."""
        if not 0 <= shard < self.n_shards:
            raise ConfigurationError(f"no such shard: {shard}")
        lo = self.boundaries[shard - 1] if shard > 0 else 0
        return lo, self.boundaries[shard]

    def split_items(self, machine) -> "list[tuple[tuple[str, str], ...]]":
        """Carve one machine's materialized state into per-shard slices.

        Uses the machine's deterministic
        :meth:`~repro.chain.execution.KVStateMachine.items_in_range`, so
        re-sharding an existing single-group state yields the identical
        split on every caller.
        """
        return [machine.items_in_range(*self.range_of(s))
                for s in range(self.n_shards)]


__all__ = ["ShardMap"]
