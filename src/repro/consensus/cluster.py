"""Generic cluster assembly.

A :class:`Cluster` bundles a simulator, a network, a set of replicas of one
protocol, and a transaction source, and provides the run/inspect helpers
that tests, examples, and the benchmark harness all share — including the
global safety check (all committed chains are prefixes of one another).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.chain.block import Block
from repro.consensus.base import CommitListener, ReplicaBase, TransactionSource
from repro.consensus.config import ProtocolConfig
from repro.crypto.keys import KeyPair, Keyring, generate_keypairs
from repro.errors import ConfigurationError
from repro.net.adversary import NetworkAdversary
from repro.net.bandwidth import BandwidthModel
from repro.net.faults import LinkFaultModel
from repro.net.network import Network
from repro.net.synchrony import PartialSynchrony
from repro.net.transport import TransportConfig
from repro.sim.loop import Simulator


@dataclass
class Cluster:
    """A running deployment of one protocol."""

    sim: Simulator
    network: Network
    config: ProtocolConfig
    keyring: Keyring
    keypairs: dict[int, KeyPair]
    nodes: list
    source: Optional[TransactionSource] = None
    listener: Optional[CommitListener] = None

    def start(self) -> None:
        """Start every replica."""
        for node in self.nodes:
            node.start()

    def run(self, duration_ms: float) -> None:
        """Advance the simulation by ``duration_ms``."""
        self.sim.run(until=self.sim.now + duration_ms)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def committed_chains(self) -> list[list[Block]]:
        """Each node's committed chain (genesis included)."""
        return [node.store.committed_chain() for node in self.nodes]

    def min_committed_height(self) -> int:
        """The lowest committed tip height among live nodes."""
        live = [n for n in self.nodes if n.alive]
        if not live:
            return 0
        return min(n.store.committed_tip.height for n in live)

    def max_committed_height(self) -> int:
        """The highest committed tip height among all nodes."""
        return max(n.store.committed_tip.height for n in self.nodes)

    def assert_safety(self) -> None:
        """Every pair of committed chains must agree wherever they overlap.

        Raises ``AssertionError`` naming the divergence point otherwise —
        this is the invariant behind the paper's Theorem 1.  Chains are
        aligned by block *height*, not list position: after checkpoint
        compaction a chain starts at its snapshot base rather than
        genesis, so positional comparison would pair unrelated blocks.
        """
        chains = self.committed_chains()
        # O(n·h) screen for the same predicate: the chains agree wherever
        # they overlap iff no height carries two hashes.  Only a failing
        # run pays for the pairwise walk that names the first pair.
        pairs = {(b.height, b.hash) for chain in chains for b in chain}
        if len(pairs) == len({height for height, _ in pairs}):
            return
        for i, a in enumerate(chains):
            by_height = {block.height: block for block in a}
            for j, b in enumerate(chains):
                if j <= i:
                    continue
                for block in b:
                    mine = by_height.get(block.height)
                    if mine is not None and mine.hash != block.hash:
                        raise AssertionError(
                            f"safety violation: nodes {i} and {j} committed different "
                            f"blocks at height {block.height}: {mine} vs {block}"
                        )


def build_cluster(
    node_factory: Callable[..., ReplicaBase],
    config: ProtocolConfig,
    latency,
    source_factory: Optional[Callable[[Simulator], TransactionSource]] = None,
    listener: Optional[CommitListener] = None,
    seed: int = 0,
    adversary: Optional[NetworkAdversary] = None,
    synchrony: Optional[PartialSynchrony] = None,
    bandwidth: Optional[BandwidthModel] = None,
    faults: Optional[LinkFaultModel] = None,
    transport: Optional[TransportConfig] = None,
    byzantine_factories: Optional[dict[int, Callable[..., ReplicaBase]]] = None,
    sim: Optional[Simulator] = None,
    network: Optional[Network] = None,
    key_seed: Optional[int] = None,
) -> Cluster:
    """Assemble a cluster of ``config.n`` replicas.

    ``node_factory(sim, network, node_id, config, keypair, keyring, source,
    listener)`` builds one replica; ``byzantine_factories`` overrides the
    factory for chosen node ids (fault-injection tests).  ``faults``
    injects probabilistic link faults; ``transport`` gives every endpoint
    a reliable channel that survives them.

    Multi-group composition (the shard layer): pass ``sim`` to place this
    cluster inside an existing simulator instead of creating one, and/or
    ``network`` to supply a pre-built fabric (then the latency/adversary/
    fault arguments here are ignored — they were consumed when that fabric
    was built).  ``key_seed`` decorrelates the keypair material of
    co-simulated groups; it defaults to ``seed``, so single-group callers
    are untouched.
    """
    if byzantine_factories and any(i >= config.n for i in byzantine_factories):
        raise ConfigurationError("byzantine node id outside the committee")
    if sim is None:
        sim = Simulator(seed=seed)
    if network is None:
        network = Network(sim, latency=latency, adversary=adversary,
                          synchrony=synchrony, bandwidth=bandwidth,
                          faults=faults, transport=transport)
    keypairs = generate_keypairs(
        range(config.n), seed=seed if key_seed is None else key_seed)
    keyring = Keyring.from_keypairs(keypairs)
    source = source_factory(sim) if source_factory is not None else None

    nodes = []
    for node_id in range(config.n):
        factory = node_factory
        if byzantine_factories and node_id in byzantine_factories:
            factory = byzantine_factories[node_id]
        nodes.append(
            factory(sim, network, node_id, config, keypairs[node_id], keyring,
                    source, listener)
        )
    return Cluster(
        sim=sim,
        network=network,
        config=config,
        keyring=keyring,
        keypairs=keypairs,
        nodes=nodes,
        source=source,
        listener=listener,
    )


__all__ = ["Cluster", "build_cluster"]
