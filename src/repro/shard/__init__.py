"""Sharded multi-group deployments: S consensus groups in one simulator,
a client routing tier, and BFT-ordered cross-shard 2PC.

Layering: :mod:`ranges` (key-space partitioning) → :mod:`machine`
(per-shard lock-table state machine) → :mod:`router` (client tier) →
:mod:`txn` (2PC driver) → :mod:`deployment` (composition) →
:mod:`invariants` (cross-shard atomicity audit) → :mod:`chaos` /
:mod:`sweep` (campaign + benchmark harnesses).
"""

from repro.shard.chaos import ShardChaosResult, ShardChaosSpec, run_shard_chaos
from repro.shard.deployment import ShardedDeployment, ShardScope
from repro.shard.invariants import INVARIANT, check_cross_shard_atomicity
from repro.shard.machine import ShardStateMachine, decode_writes, encode_writes
from repro.shard.ranges import ShardMap
from repro.shard.router import Router
from repro.shard.sweep import (format_shard_slo, format_shard_sweep,
                               run_shard_point, run_shard_sweep)
from repro.shard.txn import CrossShardTxn, TxnManager

__all__ = [
    "ShardMap",
    "ShardStateMachine",
    "encode_writes",
    "decode_writes",
    "Router",
    "TxnManager",
    "CrossShardTxn",
    "ShardedDeployment",
    "ShardScope",
    "check_cross_shard_atomicity",
    "INVARIANT",
    "ShardChaosSpec",
    "ShardChaosResult",
    "run_shard_chaos",
    "run_shard_point",
    "run_shard_sweep",
    "format_shard_sweep",
    "format_shard_slo",
]
