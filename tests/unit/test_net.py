"""Unit tests for the network substrate."""

from __future__ import annotations

import random

import pytest

from repro.errors import NetworkError
from repro.net.adversary import LinkRule, NetworkAdversary
from repro.net.bandwidth import BandwidthModel, GBPS_10_BYTES_PER_MS
from repro.net.latency import FixedLatency, LAN_PROFILE, WAN_PROFILE, LatencyProfile
from repro.net.message import HEADER_BYTES, Envelope, wire_size
from repro.net.network import Network
from repro.net.synchrony import PartialSynchrony
from repro.sim.loop import Simulator


class Sink:
    def __init__(self):
        self.received = []

    def deliver(self, envelope):
        self.received.append(envelope)


class TestLatencyProfiles:
    def test_lan_profile_matches_paper(self):
        assert LAN_PROFILE.rtt_ms == pytest.approx(0.1)
        assert LAN_PROFILE.jitter_ms == pytest.approx(0.02)

    def test_wan_profile_matches_paper(self):
        assert WAN_PROFILE.rtt_ms == pytest.approx(40.0)

    def test_samples_center_on_half_rtt(self):
        rng = random.Random(0)
        samples = [WAN_PROFILE.sample(rng) for _ in range(2000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(20.0, abs=0.05)

    def test_samples_never_nonpositive(self):
        profile = LatencyProfile(name="tight", rtt_ms=0.01, jitter_ms=1.0)
        rng = random.Random(0)
        assert all(profile.sample(rng) > 0 for _ in range(1000))

    def test_fixed_latency(self):
        fixed = FixedLatency(name="f", one_way=3.0)
        assert fixed.sample(random.Random(0)) == 3.0
        assert fixed.rtt_ms == 6.0


class Blob:
    """A payload whose envelope is exactly ``size`` bytes on the wire."""

    def __init__(self, size):
        self.size = size

    def wire_size(self):
        return self.size - HEADER_BYTES


class TestBandwidth:
    """The sender's NIC queue, as the fabric leaves it in the model."""

    def _send(self, bw, sends, at=0.0):
        sim = Simulator(seed=1)
        net = Network(sim, latency=FixedLatency("f", 1.0), bandwidth=bw)
        sinks = [Sink() for _ in range(3)]
        for node_id, sink in enumerate(sinks):
            net.attach(node_id, sink)
        sim.run(until=at)
        for src, size in sends:
            net.send(src, 2, Blob(size))
        return sim, net

    def test_serialization_time(self):
        bw = BandwidthModel()
        self._send(bw, [(0, int(GBPS_10_BYTES_PER_MS))])
        assert bw._tx_free_at[0] == pytest.approx(1.0)

    def test_fifo_queueing_per_node(self):
        bw = BandwidthModel(bytes_per_ms=100.0)
        self._send(bw, [(0, 100), (0, 100), (1, 100)])
        assert bw._tx_free_at[0] == pytest.approx(2.0)   # second behind first
        assert bw._tx_free_at[1] == pytest.approx(1.0)   # separate NIC
        assert bw.bytes_sent == {0: 200, 1: 100}

    def test_backlog_and_reset(self):
        bw = BandwidthModel(bytes_per_ms=100.0)
        sim, net = self._send(bw, [(0, 500)])
        assert bw._tx_free_at[0] - 1.0 == pytest.approx(4.0)
        # A host reboot (detach, re-attach) leaves the NIC queue in place.
        net.detach(0)
        net.attach(0, Sink())
        assert bw._tx_free_at[0] == pytest.approx(5.0)

    def test_unlimited(self):
        bw = BandwidthModel.unlimited()
        sim, _net = self._send(bw, [(0, 10**9)], at=3.0)
        sim.run()
        assert sim.now == pytest.approx(4.0)              # no NIC time
        assert bw._tx_free_at == {} and bw.bytes_sent == {}


class TestWireSize:
    def test_scalars_and_containers(self):
        assert wire_size(None) == 1
        assert wire_size(7) == 8
        assert wire_size("abcd") == 4
        assert wire_size(b"abc") == 3
        assert wire_size([1, 2]) == 4 + 16
        assert wire_size({"k": 1}) == 4 + 1 + 8

    def test_payload_method_wins(self):
        class Sized:
            def wire_size(self):
                return 1234

        assert wire_size(Sized()) == 1234

    def test_envelope_adds_header(self):
        env = Envelope.make(0, 1, "abcd", sent_at=0.0)
        assert env.size == 64 + 4


class TestAdversary:
    def test_default_passes(self):
        adv = NetworkAdversary()
        assert adv.verdict(0, 1, "x", now=0.0) == 0.0

    def test_drop_rule(self):
        adv = NetworkAdversary()
        adv.drop_link(0, 1)
        assert adv.verdict(0, 1, "x", now=0.0) is None
        assert adv.verdict(1, 0, "x", now=0.0) == 0.0
        assert adv.dropped == 1

    def test_wildcard_and_expiry(self):
        adv = NetworkAdversary()
        adv.drop_link(None, 2, until_ms=10.0)
        assert adv.verdict(5, 2, "x", now=5.0) is None
        assert adv.verdict(5, 2, "x", now=10.0) == 0.0  # expired

    def test_delay_rule_and_predicate(self):
        adv = NetworkAdversary()
        adv.add_rule(LinkRule(src=0, predicate=lambda p: p == "slow",
                              extra_delay_ms=7.0))
        assert adv.verdict(0, 1, "slow", now=0.0) == 7.0
        assert adv.verdict(0, 1, "fast", now=0.0) == 0.0

    def test_first_match_wins(self):
        adv = NetworkAdversary()
        adv.delay_link(0, 1, extra_ms=5.0)
        adv.drop_link(0, 1)
        assert adv.verdict(0, 1, "x", now=0.0) == 5.0

    def test_partition(self):
        adv = NetworkAdversary()
        adv.partition({0, 1}, {2, 3})
        assert adv.verdict(0, 2, "x", now=0.0) is None
        assert adv.verdict(0, 1, "x", now=0.0) == 0.0
        # node 4 is in no group: can talk to everyone
        assert adv.verdict(4, 0, "x", now=0.0) == 0.0
        adv.heal_partition()
        assert adv.verdict(0, 2, "x", now=0.0) == 0.0

    def test_intercept_sees_all_traffic(self):
        seen = []
        adv = NetworkAdversary(intercept=lambda s, d, p: seen.append((s, d, p)))
        adv.verdict(0, 1, "x", now=0.0)
        assert seen == [(0, 1, "x")]

    def test_remove_rule(self):
        adv = NetworkAdversary()
        rule = adv.drop_link(0, 1)
        adv.remove_rule(rule)
        assert adv.verdict(0, 1, "x", now=0.0) == 0.0
        adv.remove_rule(rule)  # idempotent


class TestPartialSynchrony:
    def test_after_gst_caps_at_delta(self):
        ps = PartialSynchrony(delta_ms=5.0, gst_ms=0.0)
        rng = random.Random(0)
        assert ps.actual_delay(0, 1, now=10.0, nominal=3.0, rng=rng) == 3.0
        assert ps.actual_delay(0, 1, now=10.0, nominal=100.0, rng=rng) == 5.0

    def test_before_gst_adds_adversarial_delay(self):
        ps = PartialSynchrony(delta_ms=5.0, gst_ms=1000.0, pre_gst_max_extra_ms=100.0)
        rng = random.Random(0)
        delays = [ps.actual_delay(0, 1, now=0.0, nominal=1.0, rng=rng)
                  for _ in range(100)]
        assert max(delays) > 5.0  # asynchrony exceeds delta pre-GST

    def test_pre_gst_delay_bounded_by_gst_plus_delta(self):
        ps = PartialSynchrony(delta_ms=5.0, gst_ms=50.0,
                              pre_gst_delay_fn=lambda s, d, t: 10_000.0)
        rng = random.Random(0)
        delay = ps.actual_delay(0, 1, now=40.0, nominal=1.0, rng=rng)
        assert delay == (50.0 - 40.0) + 5.0

    def test_synchronous_at(self):
        ps = PartialSynchrony(gst_ms=100.0)
        assert not ps.synchronous_at(50.0)
        assert ps.synchronous_at(100.0)

    def test_always_synchronous_caps_every_delay_from_time_zero(self):
        ps = PartialSynchrony.always_synchronous()
        assert (ps.delta_ms, ps.gst_ms) == (1000.0, 0.0)
        assert ps.synchronous_at(0.0)
        rng = random.Random(0)
        assert ps.actual_delay(0, 1, now=0.0, nominal=5000.0, rng=rng) == 1000.0


class TestNetwork:
    def _net(self, latency=FixedLatency("f", 1.0)):
        sim = Simulator(seed=1)
        net = Network(sim, latency=latency, bandwidth=BandwidthModel.unlimited())
        return sim, net

    def test_send_and_deliver(self):
        sim, net = self._net()
        a, b = Sink(), Sink()
        net.attach(0, a)
        net.attach(1, b)
        net.send(0, 1, "hello")
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].payload == "hello"
        assert sim.now == pytest.approx(1.0)

    def test_unattached_sender_raises(self):
        sim, net = self._net()
        with pytest.raises(NetworkError):
            net.send(0, 1, "x")

    def test_detached_destination_drops(self):
        sim, net = self._net()
        net.attach(0, Sink())
        net.send(0, 1, "x")
        sim.run()
        assert net.stats.messages_dropped == 1

    def test_broadcast_excludes_self(self):
        sim, net = self._net()
        sinks = {i: Sink() for i in range(4)}
        for i, s in sinks.items():
            net.attach(i, s)
        for dst in (1, 2, 3):
            net.send(0, dst, "x")
        sim.run()
        assert len(sinks[0].received) == 0
        assert all(len(sinks[i].received) == 1 for i in (1, 2, 3))

    def test_adversary_drop_counts(self):
        sim, net = self._net()
        net.attach(0, Sink())
        net.attach(1, Sink())
        net.adversary.drop_link(0, 1)
        net.send(0, 1, "x")
        sim.run()
        assert net.stats.messages_dropped == 1
        assert net.stats.messages_delivered == 0

    def test_stats_by_kind(self):
        sim, net = self._net()
        net.attach(0, Sink())
        net.attach(1, Sink())
        net.send(0, 1, "x")
        net.send(0, 1, 42)
        sim.run()
        assert net.stats.by_kind == {"str": 1, "int": 1}

    def test_bandwidth_serialization_delays_departure(self):
        sim = Simulator(seed=1)
        net = Network(sim, latency=FixedLatency("f", 1.0),
                      bandwidth=BandwidthModel(bytes_per_ms=10.0))
        sink = Sink()
        net.attach(0, Sink())
        net.attach(1, sink)
        net.send(0, 1, "0123456789" * 10)  # 100 B payload + 64 header
        sim.run()
        # serialization (164/10 = 16.4 ms) + propagation (1 ms)
        assert sim.now == pytest.approx(17.4)
