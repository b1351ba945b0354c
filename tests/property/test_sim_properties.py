"""Property-based tests for the simulation kernel and network substrate."""

from __future__ import annotations

import pytest

from hypothesis import given, settings, strategies as st

from repro.net.bandwidth import BandwidthModel
from repro.net.latency import FixedLatency, LatencyProfile
from repro.net.message import HEADER_BYTES
from repro.net.network import Network
from repro.sim.cpu import CpuModel
from repro.sim.loop import Simulator


class _Sized:
    """A payload of ``size`` body bytes."""

    def __init__(self, size):
        self.size = size

    def wire_size(self):
        return self.size


class _Recorder:
    def __init__(self, sim, arrivals):
        self.sim, self.arrivals = sim, arrivals

    def deliver(self, envelope):
        self.arrivals.append(self.sim.now)


class TestEventOrderingProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0,
                              allow_nan=False), min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired: list[float] = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                        allow_nan=False),
                              st.integers(0, 9)),
                    min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_same_seed_same_trace(self, schedule):
        def run(seed):
            sim = Simulator(seed=seed)
            rng = sim.fork_rng("x")
            out = []
            for delay, tag in schedule:
                sim.schedule(delay, lambda t=tag: out.append((sim.now, t,
                                                              rng.random())))
            sim.run()
            return out

        assert run(5) == run(5)

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0,
                              allow_nan=False), max_size=30),
           st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
    @settings(max_examples=60)
    def test_run_until_never_overshoots(self, delays, horizon):
        sim = Simulator()
        for delay in delays:
            sim.schedule(delay, lambda: None)
        sim.run(until=horizon)
        assert sim.now == horizon or (sim.now <= horizon and not sim.queue)


class TestCpuProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                        allow_nan=False),
                              st.floats(min_value=0, max_value=10,
                                        allow_nan=False)),
                    min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_completions_monotone_and_work_conserving(self, jobs):
        cpu = CpuModel()
        # Feed jobs in arrival order.
        jobs = sorted(jobs)
        finishes = [cpu.account(now, cost) for now, cost in jobs]
        assert finishes == sorted(finishes)
        total_cost = sum(cost for _now, cost in jobs)
        # The CPU can never finish earlier than the sum of its work.
        assert finishes[-1] >= total_cost - 1e-9


class TestNetworkModels:
    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.0, max_value=10.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80)
    def test_latency_samples_positive(self, rtt, jitter, seed):
        import random

        profile = LatencyProfile(name="p", rtt_ms=rtt, jitter_ms=jitter)
        rng = random.Random(seed)
        for _ in range(20):
            assert profile.sample(rng) > 0

    @given(st.lists(st.integers(min_value=1, max_value=10**6),
                    min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_nic_serialization_conserves_bytes(self, sizes):
        bw = BandwidthModel(bytes_per_ms=1000.0)
        sim = Simulator()
        net = Network(sim, latency=FixedLatency("f", 1.0), bandwidth=bw)
        arrivals: list[float] = []
        net.attach(0, _Recorder(sim, arrivals))
        net.attach(1, _Recorder(sim, arrivals))
        wire = [size + HEADER_BYTES for size in sizes]
        net.send_outbox(0, [(1, _Sized(size)) for size in sizes])
        sim.run()
        assert arrivals == sorted(arrivals)       # FIFO on one NIC
        assert bw._tx_free_at[0] == pytest.approx(sum(wire) / 1000.0)
        assert arrivals[-1] == pytest.approx(sum(wire) / 1000.0 + 1.0)
        assert bw.bytes_sent[0] == sum(wire)
