"""Shared consensus framework.

Everything protocol-agnostic lives here: the replica base class (network
endpoint + CPU accounting + block store + mempool + commit bookkeeping),
the round-robin / stable leader schedules, the pacemaker, and the client-
facing message types.  Achilles and every baseline build on these pieces,
which keeps the cost accounting identical across protocols — the paper's
"same platform for a fair comparison" requirement.
"""

from repro.consensus.config import NodeCosts, ProtocolConfig
from repro.consensus.base import (CommitListener, NodeStatus,
                                  QuorumCollector, ReplicaBase)
from repro.consensus.pacemaker import Pacemaker
from repro.consensus.messages import (
    ClientRequest,
    ClientReply,
    BlockSyncRequest,
    BlockSyncResponse,
)

__all__ = [
    "NodeCosts",
    "ProtocolConfig",
    "ReplicaBase",
    "CommitListener",
    "NodeStatus",
    "QuorumCollector",
    "Pacemaker",
    "ClientRequest",
    "ClientReply",
    "BlockSyncRequest",
    "BlockSyncResponse",
]
