"""Unit tests for cluster assembly, the experiment runner plumbing, and
the error hierarchy."""

from __future__ import annotations

import pytest

import repro
from repro import errors
from repro.consensus.cluster import Cluster, build_cluster
from repro.core.node import AchillesNode
from repro.errors import ConfigurationError, ReproError
from repro.faults.byz import make_byzantine
from repro.harness.invariants import InvariantViolation
from repro.harness.runner import (PROTOCOLS, ProtocolSpec, register_protocol,
                                  verdict)
from repro.net.latency import LAN_PROFILE

from tests.conftest import achilles_cluster, fast_config

SilentNode = make_byzantine(AchillesNode, ["silent"])


class TestBuildCluster:
    def test_builds_n_nodes_with_shared_keyring(self):
        cluster = achilles_cluster(f=2)
        assert len(cluster.nodes) == 5
        assert len(cluster.keyring) == 5
        ids = [n.node_id for n in cluster.nodes]
        assert ids == list(range(5))
        # every node attached to the network
        assert all(cluster.network.is_attached(i) for i in range(5))

    def test_byzantine_factory_replaces_named_nodes(self):
        cluster = build_cluster(
            node_factory=AchillesNode, config=fast_config(f=1),
            latency=LAN_PROFILE, byzantine_factories={1: SilentNode},
        )
        assert isinstance(cluster.nodes[1], SilentNode)
        assert type(cluster.nodes[0]) is AchillesNode

    def test_byzantine_id_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            build_cluster(
                node_factory=AchillesNode, config=fast_config(f=1),
                latency=LAN_PROFILE, byzantine_factories={9: SilentNode},
            )

    def test_assert_safety_detects_divergence(self):
        cluster = achilles_cluster(f=1)
        cluster.start()
        cluster.run(50.0)
        # Forge a divergent committed chain on one node.
        from repro.chain.block import create_leaf
        from repro.chain.store import BlockStore

        rogue = BlockStore()
        evil = create_leaf((), "evil", rogue.genesis, view=1, proposer=9)
        rogue.add(evil)
        rogue.commit(evil)
        cluster.nodes[0].store = rogue
        with pytest.raises(AssertionError, match="safety violation"):
            cluster.assert_safety()

    def test_assert_safety_names_the_pair_past_a_compacted_chain(self):
        # Nodes 1 and 2 diverge at height 1; node 0 has compacted above
        # it, so its chain overlaps neither at that height.  The screen
        # must still trip, and the error must name nodes 1 and 2.
        from repro.chain.block import create_leaf
        from repro.chain.store import BlockStore

        cluster = achilles_cluster(f=1)
        cluster.start()
        cluster.run(50.0)
        cluster.assert_safety()
        honest = cluster.nodes[1].store.committed_chain()[1]
        assert cluster.nodes[0].store.compact(retain=1) > 0
        assert cluster.nodes[0].store.compaction_base.height > 1
        cluster.assert_safety()  # compaction alone is not a divergence
        rogue = BlockStore()
        evil = create_leaf((), "evil", rogue.genesis, view=1, proposer=9)
        rogue.add(evil)
        rogue.commit(evil)
        cluster.nodes[2].store = rogue
        with pytest.raises(AssertionError) as raised:
            cluster.assert_safety()
        assert str(raised.value) == (
            "safety violation: nodes 1 and 2 committed different blocks "
            f"at height 1: {honest} vs {evil}")
        # With the only overlapping witness compacted too, the chains no
        # longer overlap anywhere they differ: same verdict as pairwise.
        cluster.nodes[1].store.compact(retain=1)
        cluster.assert_safety()


class TestProtocolRegistry:
    def test_register_is_idempotent_by_name(self):
        import repro.core.registry  # noqa: F401 (ensure achilles registered)

        spec = ProtocolSpec(name="achilles", node_cls=AchillesNode,
                            committee=lambda f: 2 * f + 1)
        before = len(PROTOCOLS)
        register_protocol(spec)
        assert len(PROTOCOLS) == before

    def test_spec_committee_shapes(self):
        import repro.baselines  # noqa: F401
        import repro.core.registry  # noqa: F401

        assert PROTOCOLS["achilles"].committee(10) == 21
        assert PROTOCOLS["flexibft"].committee(10) == 31
        assert PROTOCOLS["achilles-c"].outside_tee
        assert not PROTOCOLS["achilles"].uses_counter
        assert PROTOCOLS["minbft-r"].uses_counter


class TestVerdict:
    """What fails a campaign, for every kind (chaos, soak, power-cut,
    shard chaos all hand their monitor's violations to ``verdict``)."""

    TRIPPED = [InvariantViolation("agreement", 12.0, 1, "forked"),
               InvariantViolation("durable-prefix", 30.0, None, "lost")]

    def test_every_violation_fails_an_ordinary_run(self):
        assert verdict(self.TRIPPED, (), "") == [str(v) for v in self.TRIPPED]

    def test_expected_violations_are_forgiven_others_are_not(self):
        assert verdict(self.TRIPPED, ("agreement",), "") == \
            [str(self.TRIPPED[1])]

    def test_expected_violation_that_never_tripped_fails_the_run(self):
        [line] = verdict([], ("degradation-cycle",), "— nothing cycled")
        assert line == ("[expected-violation-missing] negative control "
                        "'degradation-cycle' never tripped — nothing cycled")


class TestErrorHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        for name in ("SimulationError", "NetworkError", "CryptoError",
                     "InvalidSignature", "EnclaveAbort", "EnclaveOffline",
                     "SealingError", "CounterError", "ChainError",
                     "ValidationError", "ConfigurationError"):
            cls = getattr(errors, name)
            assert issubclass(cls, ReproError), name

    def test_enclave_abort_carries_reason(self):
        exc = errors.EnclaveAbort("flag == 1")
        assert exc.reason == "flag == 1"
        assert issubclass(errors.EnclaveOffline, errors.EnclaveAbort)


class TestPublicApi:
    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet_from_readme_runs(self):
        from repro import MetricsCollector, SaturatedSource, build_achilles_cluster
        from repro.net.latency import LAN_PROFILE

        collector = MetricsCollector(warmup_ms=10.0)
        cluster = build_achilles_cluster(
            f=1, latency=LAN_PROFILE,
            config=fast_config(f=1),
            source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
            listener=collector,
        )
        cluster.start()
        cluster.run(100.0)
        cluster.assert_safety()
        assert collector.summary()["txs_committed"] > 0
