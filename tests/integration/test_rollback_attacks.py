"""Rollback attacks across the three defensive postures the paper compares:

1. **Unprotected sealing** (plain Damysus/OneShot): the attacker serves a
   stale sealed snapshot and the checker resumes in the past — it would
   happily re-issue certificates it already issued.
2. **Persistent-counter prevention** (the -R variants): the stale snapshot
   is detected, at the price of a counter write on every hot-path ECALL.
3. **Rollback-resilient recovery** (Achilles): nothing consensus-critical
   is ever sealed, so there is nothing to roll back; the rebooted node
   rebuilds state from f+1 peers and rejoins *ahead* of anything it might
   have signed.
"""

from __future__ import annotations

import pytest

from repro.baselines.damysus.checker import DamysusChecker
from repro.baselines.oneshot import OneShotChecker
from repro.core.node import NodeStatus
from repro.crypto.keys import Keyring, generate_keypairs
from repro.errors import EnclaveAbort
from repro.tee.counters import ConfigurableCounter
from repro.tee.rollback import RollbackAttacker
from repro.tee.trinc import Usig

from tests.conftest import achilles_cluster

N, F = 5, 2


@pytest.fixture
def world():
    pairs = generate_keypairs(range(N), seed=13)
    return pairs, Keyring.from_keypairs(pairs)


class TestUnprotectedSealingIsVulnerable:
    def test_damysus_checker_reissues_view_certificates_after_rollback(self, world):
        """The concrete equivocation: after a rollback, the checker signs a
        *second, different* NEW-VIEW certificate for a view it already
        certified — exactly what Lemma 1 forbids."""
        pairs, ring = world
        checker = DamysusChecker(node_id=2, n=N, f=F,
                                 private_key=pairs[2].private, keyring=ring)
        first = checker.tee_new_view()          # vi: 0 -> 1
        checker.state.prepv, checker.state.preph = 1, "block-A"
        checker.tee_new_view()                  # vi: 1 -> 2, seals v2

        attacker = RollbackAttacker(store=checker.store)
        attacker.serve_oldest(f"{checker.identity}/rstate")
        checker.reboot()
        checker.restart(N - 1)
        stale = attacker.unseal_for(checker, "rstate")
        checker.tee_restore(stale)              # accepted: no freshness check
        assert checker.state.vi == 1            # back in time

        # Now the checker re-certifies view 2 — with different contents
        # than the (implicit) certificate it issued before the rollback:
        # the pre-rollback checker reported prepared block "block-A" at
        # view 1; the rolled-back one reports the genesis state again.
        second = checker.tee_new_view()
        assert second.current_view == 2
        assert (second.block_hash, second.block_view) != ("block-A", 1)
        assert second.validate(ring)
        assert first.validate(ring)  # both certificates verify — equivocation

    def test_oneshot_checker_double_votes_after_rollback(self, world):
        pairs, ring = world
        checker = OneShotChecker(node_id=2, n=N, f=F,
                                 private_key=pairs[2].private, keyring=ring)
        # Vote once in view 1.
        from repro.chain.block import create_leaf, genesis_block
        from repro.core.certificates import BlockCertificate
        from repro.crypto.signatures import sign

        block = create_leaf((), "op", genesis_block(), view=1, proposer=1)
        cert = BlockCertificate(
            block_hash=block.hash, view=1,
            signature=sign(pairs[1].private, "PROP", block.hash, 1),
        )
        checker.tee_view_os()                   # enter view 1, seal
        vote1 = checker.tee_store_fast(cert)    # voted=True, seal v2

        attacker = RollbackAttacker(store=checker.store)
        attacker.serve_oldest(f"{checker.identity}/rstate")
        checker.reboot()
        checker.restart(N - 1)
        checker.tee_restore(attacker.unseal_for(checker, "rstate"))
        # Rolled back to 'not yet voted in view 1': the double vote goes
        # through — this is the attack Achilles' recovery eliminates.
        evil = create_leaf((), "different", genesis_block(), view=1, proposer=1)
        evil_cert = BlockCertificate(
            block_hash=evil.hash, view=1,
            signature=sign(pairs[1].private, "PROP", evil.hash, 1),
        )
        vote2 = checker.tee_store_fast(evil_cert)
        assert vote1.block_hash != vote2.block_hash
        assert vote1.view == vote2.view == 1    # equivocation achieved


class TestCounterPreventionDetects:
    def test_damysus_r_detects_and_refuses(self, world):
        pairs, ring = world
        checker = DamysusChecker(node_id=2, n=N, f=F,
                                 private_key=pairs[2].private, keyring=ring,
                                 counter=ConfigurableCounter(20.0))
        checker.tee_new_view()
        checker.tee_new_view()
        attacker = RollbackAttacker(store=checker.store)
        attacker.serve_oldest(f"{checker.identity}/rstate")
        checker.reboot()
        checker.restart(N - 1)
        with pytest.raises(EnclaveAbort, match="rollback detected"):
            checker.tee_restore(attacker.unseal_for(checker, "rstate"))
        # And the checker stays gated until the fresh state shows up.
        with pytest.raises(EnclaveAbort, match="not restored"):
            checker.tee_new_view()

    def test_counter_cost_is_on_the_hot_path(self, world):
        """The detection above is not free: every state update paid a
        20 ms write — the performance the Achilles paper reclaims."""
        pairs, ring = world
        checker = DamysusChecker(node_id=2, n=N, f=F,
                                 private_key=pairs[2].private, keyring=ring,
                                 counter=ConfigurableCounter(20.0))
        checker.tee_new_view()
        assert checker.drain_cost() >= 20.0


def _damysus(pairs, ring, counter):
    checker = DamysusChecker(node_id=2, n=N, f=F, keyring=ring,
                             private_key=pairs[2].private, counter=counter)
    return checker, checker.tee_new_view


def _oneshot(pairs, ring, counter):
    checker = OneShotChecker(node_id=2, n=N, f=F, keyring=ring,
                             private_key=pairs[2].private, counter=counter)
    return checker, checker.tee_view_os


def _usig(pairs, ring, counter):
    usig = Usig(node_id=2, private_key=pairs[2].private, keyring=ring,
                counter=counter)
    return usig, lambda: usig.create_ui("m")


@pytest.mark.parametrize("build", [_damysus, _oneshot, _usig])
class TestResetIsARollback:
    """The paper's adversary may also *reset* a TEE (Sec. 3.1): serve no
    sealed state at all.  Nothing sealed is version 0, and version 0 faces
    the counter like any other version."""

    def _rebooted(self, build, world, counter, updates):
        pairs, ring = world
        component, update = build(pairs, ring, counter)
        for _ in range(updates):
            update()
        attacker = RollbackAttacker(store=component.store)
        attacker.serve_nothing(f"{component.identity}/rstate")
        component.reboot()
        component.restart(N - 1)
        return component, attacker.unseal_for(component, "rstate")

    def test_counter_detects_a_reset_after_a_protected_update(self, build, world):
        component, sealed = self._rebooted(
            build, world, ConfigurableCounter(20.0), updates=2)
        assert sealed is None
        with pytest.raises(EnclaveAbort, match="rollback detected"):
            component.tee_restore(sealed)
        assert component.recovering  # still waiting for the fresh state
        assert component.tee_restore(component.unseal_state("rstate"))
        assert not component.recovering

    def test_without_a_counter_the_reset_goes_through(self, build, world):
        """The vulnerable baseline stays demonstrable."""
        component, sealed = self._rebooted(build, world, None, updates=2)
        assert component.tee_restore(sealed)
        assert not component.recovering

    def test_a_component_that_never_sealed_restores_from_nothing(self, build, world):
        counter = ConfigurableCounter(20.0)
        component, sealed = self._rebooted(build, world, counter, updates=0)
        assert counter.value == 0
        assert component.tee_restore(sealed)
        assert component.counter_writes == 0

    def test_store_then_increment_power_cut_window_still_resyncs(self, build, world):
        """version == counter + 1: the seal landed, the increment did not."""
        pairs, ring = world
        counter = ConfigurableCounter(20.0)
        component, update = build(pairs, ring, counter)
        update()
        update()
        version, payload = component.unseal_state("rstate")
        component.reboot()
        component.restart(N - 1)
        assert version == counter.value == 2
        assert component.tee_restore((version + 1, payload))
        assert counter.value == version + 1
        assert component.counter_writes == 3  # two updates and the resync


class TestDamysusRNodeStaysOutAfterAReset:
    @pytest.mark.parametrize("serve", ["serve_oldest", "serve_nothing"])
    def test_rebooted_replica_records_the_rollback_and_stays_gated(self, serve):
        from repro.harness.metrics import MetricsCollector
        from repro.harness.runner import (build_deployment, protocol_config,
                                          resolve_network, resolve_protocol)

        spec = resolve_protocol("damysus-r")
        config = protocol_config(spec, 1, 3, counter_write_ms=1.0,
                                 batch_size=20, payload_size=16,
                                 base_timeout_ms=50.0, recovery_retry_ms=10.0)
        cluster = build_deployment(spec, config, resolve_network("LAN"), 3,
                                   listener=MetricsCollector()).cluster
        cluster.start()
        cluster.run(60.0)
        node = cluster.nodes[-1]
        assert node.checker.counter.value > 0
        attacker = RollbackAttacker(store=node.checker.store)
        getattr(attacker, serve)(f"{node.checker.identity}/rstate")
        node.crash()
        cluster.run(20.0)
        node.reboot(rollback_attacker=attacker)
        cluster.run(150.0)
        cluster.assert_safety()
        assert attacker.attacks_mounted == 1
        assert cluster.sim.trace.count("rollback_detected") == 1
        assert node.checker.recovering  # every checker ECALL still refuses
        with pytest.raises(EnclaveAbort, match="not restored"):
            node.checker.tee_new_view()


class TestAchillesIsRollbackResilient:
    def test_recovery_ignores_untrusted_storage_entirely(self):
        """Mount the strongest storage attack (serve nothing at all) while
        a node reboots: Achilles recovery does not care — its state comes
        from peers, and the node rejoins and keeps committing safely."""
        cluster = achilles_cluster(f=2)
        node = cluster.nodes[2]
        attacker = RollbackAttacker(store=node.checker.store)
        attacker.serve_nothing(f"{node.checker.identity}/rstate")

        from repro.faults.scenarios import crash_and_reboot

        crash_and_reboot(cluster, node_id=2, at_ms=100.0, downtime_ms=10.0)
        cluster.start()
        cluster.run(600.0)
        cluster.assert_safety()
        assert node.status is NodeStatus.RUNNING
        assert node.recovery_episodes
        # The attacker never even got a chance to matter:
        assert attacker.attacks_mounted == 0

    def test_no_consensus_state_is_ever_sealed(self):
        cluster = achilles_cluster(f=2)
        cluster.start()
        cluster.run(200.0)
        for node in cluster.nodes:
            assert node.checker.store.names() == []
            assert node.accumulator.store.names() == []

    def test_achilles_node_cannot_double_vote_across_reboot(self):
        """End-to-end Lemma 1: collect every store certificate signed by a
        rebooting node across its whole lifetime; no view appears twice."""
        from repro.core.node import StoreVote

        cluster = achilles_cluster(f=2)
        votes: list = []
        original = cluster.network.adversary.intercept

        def spy(src, dst, payload):
            if src == 2 and isinstance(payload, StoreVote):
                votes.append(payload.cert)

        cluster.network.adversary.intercept = spy
        from repro.faults.scenarios import crash_and_reboot

        crash_and_reboot(cluster, node_id=2, at_ms=100.0, downtime_ms=10.0)
        crash_and_reboot(cluster, node_id=2, at_ms=350.0, downtime_ms=10.0)
        cluster.start()
        cluster.run(800.0)
        cluster.assert_safety()
        by_view: dict[int, set[str]] = {}
        for cert in votes:
            by_view.setdefault(cert.view, set()).add(cert.block_hash)
        assert votes, "the spy should have seen votes"
        for view, hashes in by_view.items():
            assert len(hashes) == 1, f"double vote in view {view}"
