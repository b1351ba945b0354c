"""Unit tests for the TEE substrate: sealing, counters, enclaves, rollback."""

from __future__ import annotations

import random

import pytest

from repro.errors import CounterError, EnclaveOffline, SealingError
from repro.tee.counters import (
    ConfigurableCounter,
    NarratorCounter,
    NullCounter,
    SGXCounter,
    TPMCounter,
    counter_from_spec,
)
from repro.tee.enclave import Enclave, EnclaveProfile, ecall
from repro.tee.rollback import RollbackAttacker
from repro.tee.sealing import SealingKey, UntrustedStore, seal, unseal


class TestSealing:
    def test_roundtrip(self):
        key = SealingKey.derive("enclave-a")
        blob = seal(key, {"state": 1}, version=1)
        assert unseal(key, blob) == {"state": 1}

    def test_wrong_enclave_rejected(self):
        key_a = SealingKey.derive("a")
        key_b = SealingKey.derive("b")
        blob = seal(key_a, "x", version=1)
        with pytest.raises(SealingError):
            unseal(key_b, blob)

    def test_forged_tag_rejected(self):
        from dataclasses import replace

        key = SealingKey.derive("a")
        blob = seal(key, "x", version=1)
        forged = replace(blob, payload="evil")
        with pytest.raises(SealingError):
            unseal(key, forged)

    def test_stale_but_authentic_blob_opens(self):
        # The crux of the rollback problem: old versions authenticate fine.
        key = SealingKey.derive("a")
        old = seal(key, "old", version=1)
        seal(key, "new", version=2)
        assert unseal(key, old) == "old"

    def test_tamper_matrix_under_interleaved_seal_and_cut(self):
        """The full adversary/physics matrix over the version history.

        Interleave seals with a power cut that tears the newest blob
        mid-flush (journal-off store: the torn record is *served*, not
        discarded).  Every fully persisted version must remain servable
        and unsealable — a rollback adversary's menu is unchanged — while
        the torn blob must fail tag validation no matter which version
        slot the adversary serves it from.
        """
        from repro.errors import TornWriteError
        from repro.storage import PowerCutController

        key = SealingKey.derive("a")
        store = UntrustedStore(journaled=False)
        # Points per store(): write, fsync, commit.  Cut at index 10 = the
        # 4th seal's fsync: v3 tears mid-flush, v0..v2 fully persisted.
        ctl = PowerCutController(cut_index=10)
        ctl.register(store.journal)
        for v in range(4):
            store.store("item", seal(key, f"v{v}", version=v))
        report = store.power_restore()
        assert report.prefix_violated  # the torn tail was served back

        assert store.version_count("item") == 4
        for v in range(3):  # any fully persisted version: adversary's pick
            blob = store.fetch("item", v)
            assert not blob.torn
            assert unseal(key, blob) == f"v{v}"
        torn = store.fetch("item", 3)
        assert torn.torn
        with pytest.raises(TornWriteError):
            unseal(key, torn)
        # ... and the torn blob stays detectable under the legacy handler
        # taxonomy: TornWriteError *is* a SealingError.
        with pytest.raises(SealingError):
            unseal(key, torn)
        # The honest "latest" fetch also lands on the torn blob — a
        # journal-off reboot cannot silently trust its newest state.
        assert store.fetch("item").torn

    def test_untrusted_store_retains_all_versions(self):
        store = UntrustedStore()
        key = SealingKey.derive("a")
        for v in range(3):
            store.store("item", seal(key, f"v{v}", version=v))
        assert store.version_count("item") == 3
        assert store.fetch("item").payload == "v2"          # honest: latest
        assert store.fetch("item", 0).payload == "v0"       # adversary: oldest
        assert store.fetch("item", 99) is None
        assert store.fetch("missing") is None
        assert store.names() == ["item"]


class TestCounters:
    def test_monotonic(self):
        c = ConfigurableCounter(20.0)
        v1, _ = c.increment()
        v2, _ = c.increment()
        assert (v1, v2) == (1, 2)
        assert c.read()[0] == 2

    def test_latencies_match_table4(self):
        rng = random.Random(0)
        tpm = TPMCounter().seed(rng)
        _, w = tpm.increment()
        _, r = tpm.read()
        assert 90 <= w <= 104   # ≈97ms ± jitter
        assert 31 <= r <= 39    # ≈35ms ± jitter

        sgx = SGXCounter().seed(rng)
        assert 150 <= sgx.increment()[1] <= 170

        nar = NarratorCounter("LAN").seed(rng)
        assert 8 <= nar.increment()[1] <= 10.5
        wan = NarratorCounter("WAN").seed(rng)
        assert 40 <= wan.increment()[1] <= 50.5

    def test_null_counter_free(self):
        c = NullCounter()
        assert c.increment() == (1, 0.0)

    def test_write_cycle_exhaustion(self):
        c = TPMCounter()
        c.max_write_cycles = 2
        c.increment()
        c.increment()
        with pytest.raises(CounterError):
            c.increment()

    def test_counter_from_spec(self):
        assert counter_from_spec("tpm").name == "TPM"
        assert counter_from_spec("narrator-wan").name == "Narrator_WAN"
        assert counter_from_spec("configurable", write_ms=40).write_ms == 40
        with pytest.raises(Exception):
            counter_from_spec("nope")

    def test_stats_counted(self):
        c = ConfigurableCounter(5.0)
        c.increment()
        c.read()
        assert (c.writes, c.reads) == (1, 1)


class DemoEnclave(Enclave):
    """A tiny enclave used to exercise the base-class machinery."""

    def __init__(self, **kwargs):
        super().__init__(identity="demo", **kwargs)
        self.secret = 0

    def wipe_volatile_state(self):
        self.secret = 0

    @ecall
    def bump(self) -> int:
        self.secret += 1
        return self.secret


class TestEnclave:
    def test_ecall_gates_after_reboot(self):
        e = DemoEnclave()
        assert e.bump() == 1
        e.reboot()
        with pytest.raises(EnclaveOffline):
            e.bump()
        e.restart(n_peers=4)
        assert e.bump() == 1  # volatile state was wiped

    def test_cost_accounting_and_drain(self):
        profile = EnclaveProfile(ecall_ms=0.5, crypto_factor=2.0)
        e = DemoEnclave(profile=profile)
        e.bump()
        e.charge_sign(1)
        cost = e.drain_cost()
        assert cost == pytest.approx(0.5 + e.crypto.sign_ms * 2.0)
        assert e.drain_cost() == 0.0  # drained

    def test_outside_tee_profile_is_cheap(self):
        p = EnclaveProfile.outside_tee()
        assert p.ecall_ms == 0.0
        assert p.crypto_factor == 1.0
        assert p.init_cost(60) < EnclaveProfile().init_cost(60)

    def test_init_cost_grows_with_peers(self):
        p = EnclaveProfile()
        assert p.init_cost(60) > p.init_cost(2)

    def test_seal_unseal_state(self):
        e = DemoEnclave()
        e.seal_state("s", {"v": 1})
        e.seal_state("s", {"v": 2})
        assert e.unseal_state("s") == {"v": 2}
        assert e.unseal_state("s", version_index=0) == {"v": 1}
        assert e.unseal_state("never") is None

    def test_reboot_counter(self):
        e = DemoEnclave()
        e.reboot()
        e.reboot()
        assert e.reboots == 2


class TestRollbackAttacker:
    def test_serves_stale_version(self):
        e = DemoEnclave()
        e.seal_state("s", "old")
        e.seal_state("s", "new")
        attacker = RollbackAttacker(store=e.store)
        attacker.serve_oldest("demo/s")
        assert attacker.unseal_for(e, "s") == "old"
        assert attacker.attacks_mounted == 1

    def test_serves_nothing_resets(self):
        e = DemoEnclave()
        e.seal_state("s", "data")
        attacker = RollbackAttacker(store=e.store)
        attacker.serve_nothing("demo/s")
        assert attacker.unseal_for(e, "s") is None

    def test_no_plan_means_honest_latest(self):
        e = DemoEnclave()
        e.seal_state("s", "v1")
        e.seal_state("s", "v2")
        attacker = RollbackAttacker(store=e.store)
        assert attacker.unseal_for(e, "s") == "v2"
        assert attacker.attacks_mounted == 0

    def test_short_name_plan(self):
        e = DemoEnclave()
        e.seal_state("s", "v1")
        e.seal_state("s", "v2")
        attacker = RollbackAttacker(store=e.store)
        attacker.serve_stale("s", 0)
        assert attacker.unseal_for(e, "s") == "v1"


class TestCounterJitterSeeding:
    """Regression: counters built via ``ProtocolConfig.make_counter`` were
    never seeded, so every replica's counter shared the identical default
    ``Random(0)`` stream and write jitter was perfectly correlated."""

    @staticmethod
    def _cluster(seed: int):
        from repro.baselines.damysus.node import DamysusNode
        from repro.consensus.cluster import build_cluster
        from repro.consensus.config import ProtocolConfig
        from repro.net.latency import LAN_PROFILE

        config = ProtocolConfig.tee_committee(
            f=2, counter_factory=lambda: NarratorCounter("LAN"), seed=seed,
        )
        return build_cluster(DamysusNode, config, LAN_PROFILE, seed=seed)

    def test_per_node_jitter_streams_are_decorrelated(self):
        cluster = self._cluster(seed=9)
        seqs = [
            tuple(node.checker.counter.increment()[1] for _ in range(8))
            for node in cluster.nodes
        ]
        # Every replica must draw from its own fork; pre-fix all five
        # sequences were byte-identical.
        assert len(set(seqs)) == len(seqs)

    def test_seeded_jitter_is_deterministic_per_seed(self):
        draw = lambda c: [c.checker.counter.increment()[1] for _ in range(8)]
        first = [draw(n) for n in self._cluster(seed=9).nodes]
        again = [draw(n) for n in self._cluster(seed=9).nodes]
        assert first == again

    def test_make_counter_seeds_with_provided_rng(self):
        from repro.consensus.config import ProtocolConfig

        config = ProtocolConfig.tee_committee(
            f=1, counter_factory=lambda: NarratorCounter("LAN"),
        )
        a = config.make_counter(random.Random("stream-a"))
        b = config.make_counter(random.Random("stream-b"))
        assert [a.increment()[1] for _ in range(6)] != \
            [b.increment()[1] for _ in range(6)]
