"""Dynamic reconfiguration (member replacement) — the Sec. 6.2 extension."""

from __future__ import annotations

import pytest

from repro.chain.transaction import TxBatch
from repro.client.workload import QueueSource, SaturatedSource
from repro.core.reconfig import (
    ACTIVATION_GRACE,
    ReconfigurableAchillesNode,
    build_reconfigurable_cluster,
    make_reconf_tx,
    parse_reconf,
)
from repro.harness.metrics import MetricsCollector
from repro.net.latency import LAN_PROFILE

from tests.conftest import fast_config


def reconf_cluster(f=2, standbys=1, seed=23):
    collector = MetricsCollector()
    cluster = build_reconfigurable_cluster(
        f=f, standbys=standbys, latency=LAN_PROFILE,
        config=fast_config(f=f),
        source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
        listener=collector, seed=seed,
    )
    cluster.collector = collector
    return cluster


class TestReconfTx:
    def test_roundtrip(self):
        tx = make_reconf_tx(old_member=1, new_member=5, tx_id=9)
        assert parse_reconf(tx.payload) == (1, 5)

    def test_non_reconf_tx_ignored(self):
        assert parse_reconf("SET a 1") is None
        assert parse_reconf("RECONF REPLACE x") is None


class TestReplacement:
    def _run_replacement(self, cluster, old=1, new=5, at_ms=100.0):
        """Inject a replacement transaction into the mempool at ``at_ms``."""

        def inject():
            tx = make_reconf_tx(old_member=old, new_member=new, tx_id=10**6)
            # SaturatedSource mints txs; push the reconf through a wrapper.
            original_take = cluster.source.take

            def take_with_reconf(count, now, _orig=original_take):
                cluster.source.take = _orig
                return TxBatch.of([tx, *_orig(count - 1, now)])

            cluster.source.take = take_with_reconf

        cluster.sim.schedule_at(at_ms, inject)

    def test_standby_replaces_a_member(self):
        cluster = reconf_cluster()
        self._run_replacement(cluster, old=1, new=5)
        cluster.start()
        cluster.run(600.0)
        cluster.assert_safety()
        # Every (current) member applied the swap...
        applied = [n for n in cluster.nodes if n.reconfigurations_applied]
        assert len(applied) >= 2 * cluster.config.f + 1 - 1
        active = [n for n in cluster.nodes if not n.is_standby]
        assert {n.node_id for n in active} == {0, 2, 3, 4, 5}
        # ...the old member retired, the standby leads views and proposes.
        assert cluster.nodes[1].is_standby
        proposers = {b.proposer
                     for b in cluster.nodes[0].store.committed_chain()[-20:]}
        assert 5 in proposers
        assert cluster.nodes[5].store.committed_tip.height >= \
            cluster.nodes[0].store.committed_tip.height - 3

    def test_progress_continues_through_the_swap(self):
        cluster = reconf_cluster()
        self._run_replacement(cluster)
        cluster.start()
        cluster.run(300.0)
        height_mid = max(n.store.committed_tip.height for n in cluster.nodes)
        cluster.run(300.0)
        cluster.assert_safety()
        assert max(n.store.committed_tip.height
                   for n in cluster.nodes) > height_mid + 20

    def test_replaced_member_stops_being_scheduled(self):
        cluster = reconf_cluster()
        self._run_replacement(cluster, old=1, new=5, at_ms=100.0)
        cluster.start()
        cluster.run(600.0)
        # After activation, no committed block is proposed by node 1.
        chain = cluster.nodes[0].store.committed_chain()
        reconf_height = next(
            b.height for b in chain
            if any(map(parse_reconf, b.txs.column("payloads")))
        )
        after = [b for b in chain
                 if b.height > reconf_height + ACTIVATION_GRACE + 1]
        assert after, "chain must continue past activation"
        assert all(b.proposer != 1 for b in after)

    def test_checker_rejects_uncertified_reconfiguration(self):
        """A Byzantine host cannot switch its checker's membership without
        a commitment certificate for a real reconf block."""
        from repro.chain.block import create_leaf, genesis_block
        from repro.core.certificates import CommitmentCertificate
        from repro.crypto.signatures import SignatureList, sign
        from repro.errors import EnclaveAbort

        cluster = reconf_cluster()
        node = cluster.nodes[0]
        tx = make_reconf_tx(old_member=1, new_member=5, tx_id=1)
        block = create_leaf((tx,), "op", genesis_block(), view=1, proposer=1)
        # A forged "certificate" signed by a single key.
        forged = CommitmentCertificate(
            block_hash=block.hash, view=1,
            signatures=SignatureList.of(
                [sign(cluster.keypairs[0].private, "COMMIT", block.hash, 1)]),
        )
        with pytest.raises(EnclaveAbort, match="invalid commitment"):
            node.checker.tee_reconfigure(forged, block)

    def test_checker_rejects_unknown_standby(self):
        from repro.chain.block import create_leaf, genesis_block
        from repro.core.certificates import CommitmentCertificate
        from repro.crypto.signatures import SignatureList, sign
        from repro.errors import EnclaveAbort

        cluster = reconf_cluster()
        node = cluster.nodes[0]
        tx = make_reconf_tx(old_member=1, new_member=99, tx_id=1)
        block = create_leaf((tx,), "op", genesis_block(), view=1, proposer=1)
        qc = CommitmentCertificate(
            block_hash=block.hash, view=1,
            signatures=SignatureList.of(
                sign(cluster.keypairs[i].private, "COMMIT", block.hash, 1)
                for i in range(3)),
        )
        with pytest.raises(EnclaveAbort, match="not in the attested PKI"):
            node.checker.tee_reconfigure(qc, block)


class TestReconfigurationRecoveryHazard:
    def test_recovery_works_after_a_swap(self):
        """A member that reboots *after* a replacement recovers from the
        current group (its requests go to everyone it knows; replies from
        the live quorum satisfy Algorithm 3)."""
        from repro.faults.scenarios import crash_and_reboot

        cluster = reconf_cluster()
        TestReplacement._run_replacement(TestReplacement(), cluster,
                                         old=1, new=5, at_ms=80.0)
        crash_and_reboot(cluster, node_id=3, at_ms=300.0, downtime_ms=10.0)
        cluster.start()
        cluster.run(900.0)
        cluster.assert_safety()
        node = cluster.nodes[3]
        assert node.recovery_episodes
        assert not node.is_standby
        assert set(node.members) == {0, 2, 3, 4, 5}
