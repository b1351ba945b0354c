"""Unit tests for the production-shaped workload generators.

Covers spec validation, analytic rate modulation, byte-identical
deterministic sequences, distribution sanity (mean preservation,
Zipf skew), idle probing, and the bounded-mempool drop typing.
"""

import math

import pytest

from repro.chain.transaction import Transaction, TxBatch
from repro.client.workload import (DROP_DUPLICATE, DROP_OVERFLOW,
                                   QueueSource, ShardedOpenLoopGenerator)
from repro.shard.ranges import ShardMap
from repro.sim.loop import Simulator
from repro.workload.generators import (_IDLE_PROBE_MS, ArrivalEngine,
                                       TrafficGenerator)
from repro.workload.spec import ChurnEvent, FlashCrowd, WorkloadSpec


class TestWorkloadSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(base_rate_tps=0)
        with pytest.raises(ValueError):
            WorkloadSpec(arrival="uniform")
        with pytest.raises(ValueError):
            WorkloadSpec(diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            WorkloadSpec(clients=0)
        with pytest.raises(ValueError):  # churn must be sorted by time
            WorkloadSpec(churn=(ChurnEvent(100.0, 10),
                                ChurnEvent(50.0, 20)))
        with pytest.raises(ValueError):
            ChurnEvent(10.0, 0)
        with pytest.raises(ValueError):
            FlashCrowd(0.0, 0.0, 2.0)

    def test_a_client_is_one_words_draw(self):
        """The generator decodes a client from one 32-bit word, so the
        population stays below 2**32 — at every churn step too."""
        WorkloadSpec(clients=2**32 - 1, churn=(ChurnEvent(1.0, 2**32 - 1),))
        with pytest.raises(ValueError, match="2\\*\\*32"):
            WorkloadSpec(clients=2**32)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            ChurnEvent(1.0, 2**32)

    def test_population_steps_at_churn_events(self):
        spec = WorkloadSpec(clients=100,
                            churn=(ChurnEvent(100.0, 40),
                                   ChurnEvent(200.0, 70)))
        assert spec.population_at(0.0) == 100
        assert spec.population_at(99.9) == 100
        assert spec.population_at(100.0) == 40
        assert spec.population_at(150.0) == 40
        assert spec.population_at(200.0) == 70

    def test_rate_composes_population_diurnal_flash(self):
        spec = WorkloadSpec(
            base_rate_tps=1000.0, clients=100,
            churn=(ChurnEvent(500.0, 50),),
            diurnal_amplitude=0.5, diurnal_period_ms=1000.0,
            flash_crowds=(FlashCrowd(200.0, 100.0, 4.0),),
        )
        # t=0: sin(0)=0, no flash, full population.
        assert spec.rate_at(0.0) == pytest.approx(1000.0)
        # t=250: sin(pi/2)=1 -> x1.5, flash active -> x4.
        assert spec.rate_at(250.0) == pytest.approx(1000.0 * 1.5 * 4.0)
        # t=500: churn halved the population; sin(pi)=0.
        assert spec.rate_at(500.0) == pytest.approx(500.0, abs=1.0)

    def test_flash_crowd_window_is_half_open(self):
        crowd = FlashCrowd(100.0, 50.0, 2.0)
        assert not crowd.active_at(99.9)
        assert crowd.active_at(100.0)
        assert crowd.active_at(149.9)
        assert not crowd.active_at(150.0)


class TestArrivalEngine:
    def test_identical_sequences_same_seed(self):
        spec = WorkloadSpec(base_rate_tps=5000.0, clients=1000,
                            arrival="lognormal", key_space=64)
        seqs = []
        for _ in range(2):
            engine = ArrivalEngine(spec, Simulator(seed=7).fork_rng("w"))
            seq = []
            now = 0.0
            for _ in range(200):
                gap = engine.next_gap_ms(now)
                now += gap
                seq.append((gap, engine.next_client(now),
                            engine.next_key_rank(now)))
            seqs.append(seq)
        assert seqs[0] == seqs[1]  # byte-identical across runs

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(base_rate_tps=5000.0, clients=1000)
        gaps = []
        for seed in (1, 2):
            engine = ArrivalEngine(spec, Simulator(seed=seed).fork_rng("w"))
            gaps.append([engine.next_gap_ms(0.0) for _ in range(32)])
        assert gaps[0] != gaps[1]

    @pytest.mark.parametrize("arrival", ["poisson", "lognormal"])
    def test_mean_gap_matches_rate(self, arrival):
        # Mean-preservation: 2000 TPS -> 0.5 ms mean gap for both
        # processes (the lognormal mu is shifted by sigma^2/2).
        spec = WorkloadSpec(base_rate_tps=2000.0, arrival=arrival,
                            lognormal_sigma=1.0)
        engine = ArrivalEngine(spec, Simulator(seed=3).fork_rng("w"))
        n = 20_000
        mean = sum(engine.next_gap_ms(0.0) for _ in range(n)) / n
        assert mean == pytest.approx(0.5, rel=0.1)

    def test_lognormal_is_heavier_tailed(self):
        draws = {}
        for arrival in ("poisson", "lognormal"):
            spec = WorkloadSpec(base_rate_tps=2000.0, arrival=arrival,
                                lognormal_sigma=1.5)
            engine = ArrivalEngine(spec, Simulator(seed=5).fork_rng("w"))
            draws[arrival] = sorted(engine.next_gap_ms(0.0)
                                    for _ in range(20_000))
        # Same mean, but the lognormal's extreme tail stretches further.
        assert draws["lognormal"][-1] > draws["poisson"][-1]

    def test_zipf_skews_towards_rank_zero(self):
        spec = WorkloadSpec(zipf_s=1.2, key_space=100)
        engine = ArrivalEngine(spec, Simulator(seed=9).fork_rng("w"))
        counts = [0] * 100
        for _ in range(20_000):
            counts[engine.draw_rank()] += 1
        assert counts[0] > counts[10] > counts[90]
        # Rank 0 weight under Zipf(1.2, 100) is ~26% of all draws.
        assert counts[0] / 20_000 > 0.15

    def test_zipf_uniform_when_s_zero(self):
        spec = WorkloadSpec(zipf_s=0.0, key_space=10)
        engine = ArrivalEngine(spec, Simulator(seed=11).fork_rng("w"))
        counts = [0] * 10
        for _ in range(10_000):
            counts[engine.draw_rank()] += 1
        assert max(counts) < 2 * min(counts)

    def test_no_keys_draws_minus_one(self):
        spec = WorkloadSpec(key_space=0)
        engine = ArrivalEngine(spec, Simulator(seed=1).fork_rng("w"))
        assert engine.draw_rank() == -1

    def test_client_ids_respect_churned_population(self):
        spec = WorkloadSpec(clients=1000, churn=(ChurnEvent(100.0, 10),))
        engine = ArrivalEngine(spec, Simulator(seed=2).fork_rng("w"))
        assert all(engine.next_client(200.0) < 10 for _ in range(100))
        assert engine.churn_transitions == 1

    def test_flash_arrival_engagement_counter(self):
        spec = WorkloadSpec(flash_crowds=(FlashCrowd(0.0, 100.0, 2.0),))
        engine = ArrivalEngine(spec, Simulator(seed=2).fork_rng("w"))
        engine.next_key_rank(50.0)
        engine.next_key_rank(150.0)  # outside the window
        assert engine.flash_arrivals == 1


class TestTrafficGenerator:
    def _run(self, spec, seed=0, until=500.0):
        sim = Simulator(seed=seed)
        source = QueueSource()
        gen = TrafficGenerator(sim, source, spec, record=[])
        gen.start()
        sim.run(until=until)
        # Arrivals are pulled, not pushed: `record` is a caught-up read of
        # the generator, not the bare list handed in.
        return sim, source, gen, gen.record

    def test_deterministic_stream(self):
        spec = WorkloadSpec(base_rate_tps=4000.0, clients=500, key_space=32)
        _, _, gen_a, rec_a = self._run(spec, seed=42)
        _, _, gen_b, rec_b = self._run(spec, seed=42)
        assert rec_a == rec_b
        assert len(rec_a) == gen_a.emitted == gen_b.emitted > 0

    def test_submissions_reach_mempool_after_client_hop(self):
        spec = WorkloadSpec(base_rate_tps=2000.0, client_one_way_ms=5.0)
        sim, source, gen, record = self._run(spec, until=200.0)
        assert gen.accepted == source.submitted
        assert gen.accepted > 0
        # Everything emitted before now-5ms must have been delivered.
        settled = sum(1 for (t, _, _) in record if t <= sim.now - 5.0)
        assert source.submitted >= settled

    def test_kv_payload_shape(self):
        spec = WorkloadSpec(base_rate_tps=2000.0, key_space=8)
        _, source, _, _ = self._run(spec, until=50.0)
        txs = source.take(16, 0.0)
        assert txs and all(tx.payload.startswith("SET k") for tx in txs)

    def test_opaque_payload_when_no_keyspace(self):
        spec = WorkloadSpec(base_rate_tps=2000.0, key_space=0)
        _, source, _, _ = self._run(spec, until=50.0)
        txs = source.take(16, 0.0)
        assert txs and all(tx.payload == "" for tx in txs)

    def test_idle_probe_during_flash_free_outage(self):
        # Drive the rate to ~0 via churn to a 1-client population with a
        # tiny base rate: gaps become huge, the engine keeps probing and
        # recovers when the population returns.
        spec = WorkloadSpec(base_rate_tps=1000.0, clients=1000,
                            churn=(ChurnEvent(50.0, 1),
                                   ChurnEvent(400.0, 1000)))
        sim, source, gen, record = self._run(spec, until=600.0)
        early = sum(1 for (t, _, _) in record if t < 50.0)
        mid = sum(1 for (t, _, _) in record if 50.0 <= t < 400.0)
        late = sum(1 for (t, _, _) in record if t >= 400.0)
        assert early > 10 * max(mid, 1)
        assert late > 10 * max(mid, 1)

    def test_stop_halts_emission(self):
        spec = WorkloadSpec(base_rate_tps=2000.0)
        sim = Simulator(seed=0)
        source = QueueSource()
        gen = TrafficGenerator(sim, source, spec)
        gen.start()
        sim.run(until=100.0)
        gen.stop()
        emitted = gen.emitted
        sim.run(until=200.0)
        assert gen.emitted == emitted

    def test_idle_probe_constant_sane(self):
        assert _IDLE_PROBE_MS > 0


class TestBoundedQueueSource:
    def _tx(self, i):
        return Transaction(1, i, "", 8, 0.0)

    def test_overflow_drop_typed_and_counted(self):
        source = QueueSource(capacity=2)
        assert source.submit(self._tx(1))
        assert source.submit(self._tx(2))
        assert not source.submit(self._tx(3))
        assert source.dropped(DROP_OVERFLOW) == 1
        assert source.pending() == 2

    def test_duplicate_drop_typed(self):
        source = QueueSource(capacity=4)
        assert source.submit(self._tx(1))
        assert not source.submit(self._tx(1))
        assert source.dropped(DROP_DUPLICATE) == 1
        assert source.duplicates_dropped == 1

    def test_retry_after_overflow_is_admitted(self):
        # A dropped tx never enters the dedup set: the client's retry
        # succeeds once the backlog drains.
        source = QueueSource(capacity=1)
        assert source.submit(self._tx(1))
        assert not source.submit(self._tx(2))
        source.take(1, 0.0)
        assert source.submit(self._tx(2))

    def test_requeue_bypasses_capacity(self):
        source = QueueSource(capacity=1)
        assert source.submit(self._tx(1))
        taken = source.take(1, 0.0)
        source.requeue(TxBatch.of([*taken, self._tx(2)]))
        assert source.pending() == 2  # over capacity by design

    def test_unbounded_default_never_drops(self):
        source = QueueSource()
        for i in range(10_000):
            assert source.submit(self._tx(i))
        assert source.drops == {}

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueueSource(capacity=0)


class TestShardedGenerator:
    class Router:
        shard_map = ShardMap.uniform(4)

    @pytest.mark.parametrize("keys_per_shard", [0, -1, 2**32])
    def test_a_key_is_one_words_draw(self, keys_per_shard):
        """A key's ``choice`` is decoded from one 32-bit word, so a pool
        holds at least one key and fewer than 2**32: refused before any
        pool is built."""
        with pytest.raises(ValueError, match="keys_per_shard"):
            ShardedOpenLoopGenerator(Simulator(seed=1), self.Router(), None,
                                     rate_tps=10.0,
                                     keys_per_shard=keys_per_shard)

    def test_one_key_per_shard(self):
        generator = ShardedOpenLoopGenerator(
            Simulator(seed=1), self.Router(), None, rate_tps=10.0,
            keys_per_shard=1)
        assert [len(pool) for pool in generator.keys_by_shard] == [1] * 4
