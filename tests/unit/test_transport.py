"""Unit tests for the link-fault model and the reliable transport."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.net.adversary import LinkRule
from repro.net.bandwidth import BandwidthModel
from repro.net.faults import FaultRates, LinkFaultModel
from repro.net.latency import FixedLatency
from repro.net.message import Envelope
from repro.net.network import Network
from repro.net.transport import (
    AckPayload,
    Frame,
    TransportConfig,
    frame_intact,
    seal_envelope,
)
from repro.sim.loop import Simulator


class Sink:
    def __init__(self):
        self.received = []

    def deliver(self, envelope):
        self.received.append(envelope)


def _net(transport=None, faults=None, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency("f", 1.0),
                  bandwidth=BandwidthModel.unlimited(),
                  faults=faults, transport=transport)
    sinks = {}
    for i in (0, 1):
        sinks[i] = Sink()
        net.attach(i, sinks[i])
    return sim, net, sinks


ENGAGED = TransportConfig(jitter=0.0)


class TestFaultModel:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultRates(loss=1.5)

    def test_active_and_corrupt_possible(self):
        assert not LinkFaultModel().active
        assert LinkFaultModel(loss=0.1).active
        model = LinkFaultModel(per_kind={"Vote": FaultRates(corrupt=0.5)})
        assert model.active and model.corrupt_possible
        assert not LinkFaultModel(loss=0.1).corrupt_possible

    def test_rates_precedence_link_over_kind_over_base(self):
        model = LinkFaultModel(
            loss=0.1,
            per_kind={"Vote": FaultRates(loss=0.2)},
            per_link={(0, 1): FaultRates(loss=0.3),
                      (2, None): FaultRates(loss=0.4)})
        assert model.rates_for(0, 1, "Vote").loss == 0.3
        assert model.rates_for(2, 9, "Vote").loss == 0.4
        assert model.rates_for(5, 6, "Vote").loss == 0.2
        assert model.rates_for(5, 6, "Block").loss == 0.1

    def test_verdict_requires_bind(self):
        with pytest.raises(ConfigurationError):
            LinkFaultModel(loss=0.5).verdict(0, 1, "x")

    def test_verdict_deterministic_per_seed(self):
        def fates(seed):
            model = LinkFaultModel(loss=0.3, dup=0.3, reorder=0.3,
                                   corrupt=0.3).bind(Simulator(seed=seed))
            return [model.verdict(0, 1, "x") for _ in range(200)]

        assert fates(7) == fates(7)
        assert fates(7) != fates(8)

    def test_inactive_model_draws_nothing(self):
        model = LinkFaultModel().bind(Simulator(seed=1))
        verdicts = {model.verdict(0, 1, "x") for _ in range(10)}
        assert len(verdicts) == 1  # always the shared _PASS verdict
        assert model.drops == model.duplicates == 0

    def test_loss_rate_roughly_honoured(self):
        model = LinkFaultModel(loss=0.2).bind(Simulator(seed=3))
        drops = sum(model.verdict(0, 1, "x").drop for _ in range(5000))
        assert 0.15 < drops / 5000 < 0.25


class TestFabricFaults:
    def test_loss_drops_and_counts(self):
        sim, net, sinks = _net(faults=LinkFaultModel(loss=1.0))
        net.send(0, 1, "x")
        sim.run()
        assert sinks[1].received == []
        assert net.stats.fault_dropped == 1
        assert net.stats.messages_sent == 1  # offered to the wire

    def test_duplicate_without_transport_delivers_twice(self):
        sim, net, sinks = _net(faults=LinkFaultModel(dup=1.0))
        net.send(0, 1, "x")
        sim.run()
        assert len(sinks[1].received) == 2
        assert net.stats.fault_duplicated == 1
        assert net.stats.duplicates_delivered == 1
        assert net.stats.messages_sent == 1  # the copy is fabric-made
        ids = {e.msg_id for e in sinks[1].received}
        assert len(ids) == 2  # the copy has its own identity

    def test_corruption_detected_never_delivered(self):
        sim, net, sinks = _net(faults=LinkFaultModel(corrupt=1.0))
        net.send(0, 1, "x")
        sim.run()
        assert sinks[1].received == []
        assert net.stats.fault_corrupted == 1
        assert net.stats.corrupt_rejected == 1

    def test_reorder_delays_but_delivers(self):
        sim, net, sinks = _net(faults=LinkFaultModel(reorder=1.0))
        net.send(0, 1, "x")
        sim.run()
        assert len(sinks[1].received) == 1
        assert sim.now > 1.0  # beyond the bare 1 ms propagation


class TestSeal:
    def test_seal_and_verify(self):
        env = Envelope.make(0, 1, "abc", sent_at=0.0)
        env.frame = Frame(epoch=0, seq=1)
        seal_envelope(env)
        assert frame_intact(env)
        env.corrupt()
        assert not frame_intact(env)

    def test_unsealed_falls_back_to_fabric_flag(self):
        env = Envelope.make(0, 1, "abc", sent_at=0.0)
        assert frame_intact(env)
        env.corrupt()
        assert not frame_intact(env)


class TestTransportConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TransportConfig(base_rto_ms=0)
        with pytest.raises(ConfigurationError):
            TransportConfig(max_rto_ms=1.0)  # below base
        with pytest.raises(ConfigurationError):
            TransportConfig(window=0)


class TestReliableChannel:
    def test_dedup_under_fabric_duplication(self):
        sim, net, sinks = _net(transport=TransportConfig(),
                               faults=LinkFaultModel(dup=1.0))
        for i in range(10):
            net.send(0, 1, i)
        sim.run(until=2000.0)
        payloads = [e.payload for e in sinks[1].received
                    if not isinstance(e.payload, AckPayload)]
        assert sorted(payloads) == list(range(10))  # exactly once each
        assert net.channel(1).stats.dup_suppressed >= 10
        assert net.stats.duplicates_delivered == 0

    def test_receive_reorders_and_dedups(self):
        sim, net, _ = _net(transport=ENGAGED)
        channel = net.channel(1)

        def arrive(seq):
            env = Envelope.make(0, 1, f"m{seq}", sent_at=sim.now)
            env.frame = Frame(epoch=0, seq=seq)
            return channel.receive(env)

        assert arrive(1) is True
        assert arrive(3) is True       # out of order, delivered immediately
        assert channel.stats.out_of_order == 1
        assert arrive(3) is False      # duplicate of a sacked frame
        assert arrive(2) is True       # fills the hole
        rx = channel._rx[0]
        assert rx.cum == 3 and rx.sacks == set()
        assert arrive(2) is False      # duplicate below cum
        assert channel.stats.dup_suppressed == 2

    def test_retransmit_backoff_sequence(self):
        config = TransportConfig(base_rto_ms=10.0, backoff=2.0,
                                 max_rto_ms=40.0, jitter=0.0)
        sim, net, _ = _net(transport=config)
        net.adversary.drop_link(0, 1)  # data and retransmits all dropped
        net.send(0, 1, "x")
        times = []
        channel = net.channel(0)
        original = channel._retransmit_due

        def spy(peer_id, generation):
            times.append(sim.now)
            original(peer_id, generation)

        channel._retransmit_due = spy
        sim.run(until=200.0)
        # RTO doubles from 10 and caps at 40: fires at 10, 30, 70, 110, 150.
        assert times[:5] == pytest.approx([10.0, 30.0, 70.0, 110.0, 150.0])
        assert channel.stats.retransmissions >= 5

    def test_retransmission_repairs_loss(self):
        config = TransportConfig(base_rto_ms=10.0, jitter=0.0)
        sim, net, sinks = _net(transport=config)
        # Drop exactly the first data copy; let the retransmit through.
        seen = {"n": 0}

        def first_only(payload):
            if isinstance(payload, AckPayload):
                return False
            seen["n"] += 1
            return seen["n"] == 1

        net.adversary.add_rule(LinkRule(src=0, dst=1, predicate=first_only,
                                        drop=True))
        net.send(0, 1, "precious")
        sim.run(until=500.0)
        assert [e.payload for e in sinks[1].received
                if not isinstance(e.payload, AckPayload)] == ["precious"]
        assert net.channel(0).stats.retransmissions == 1
        assert net.channel(0).stats.frames_acked == 1
        assert not net.channel(0)._tx[1].inflight  # nothing left in flight

    def test_ack_loss_is_survivable(self):
        config = TransportConfig(base_rto_ms=10.0, jitter=0.0)
        sim, net, sinks = _net(transport=config)
        dropped = {"n": 0}

        def acks_only(payload):
            if isinstance(payload, AckPayload):
                dropped["n"] += 1
                return dropped["n"] <= 2  # first two ACKs lost
            return False

        net.adversary.add_rule(LinkRule(src=1, dst=0, predicate=acks_only,
                                        drop=True))
        net.send(0, 1, "x")
        sim.run(until=500.0)
        # Delivered once despite lost ACKs; the retransmit re-triggers the
        # receiver's (cumulative, idempotent) ACK until one gets through.
        assert [e.payload for e in sinks[1].received
                if not isinstance(e.payload, AckPayload)] == ["x"]
        assert dropped["n"] > 2
        assert net.channel(0).stats.frames_acked == 1
        assert net.channel(1).stats.dup_suppressed >= 1

    def test_window_eviction_oldest_first(self):
        config = TransportConfig(window=2, jitter=0.0)
        sim, net, _ = _net(transport=config)
        net.adversary.drop_link(0, 1)  # nothing ever ACKed
        for i in range(4):
            net.send(0, 1, i)
        channel = net.channel(0)
        assert channel.stats.window_evictions == 2
        assert sorted(channel._tx[1].inflight) == [3, 4]  # newest two

    def test_piggybacked_ack_cancels_standalone(self):
        config = TransportConfig(ack_delay_ms=50.0, jitter=0.0)
        sim, net, _ = _net(transport=config)
        net.send(0, 1, "ping")
        sim.run(until=2.0)      # ping arrived; node 1 owes an ACK
        net.send(1, 0, "pong")  # reply departs inside the delayed-ack window
        sim.run(until=300.0)
        assert net.channel(1).stats.acks_piggybacked == 1
        assert net.channel(1).stats.acks_sent == 0  # standalone never fired
        assert net.channel(0).stats.frames_acked == 1

    def test_reset_bumps_epoch_and_abandons_inflight(self):
        sim, net, _ = _net(transport=ENGAGED)
        net.adversary.drop_link(0, 1)
        net.send(0, 1, "x")
        channel = net.channel(0)
        assert channel._tx[1].inflight
        net.reset_channel(0)
        assert channel.epoch == 1
        assert not channel._tx
        net.send(0, 1, "y")
        assert channel._tx[1].next_seq == 2  # fresh stream, seq restarts

    def test_stale_epoch_frames_dropped(self):
        sim, net, _ = _net(transport=ENGAGED)
        channel = net.channel(1)
        new = Envelope.make(0, 1, "new", sent_at=0.0)
        new.frame = Frame(epoch=1, seq=1)
        assert channel.receive(new) is True
        stale = Envelope.make(0, 1, "stale", sent_at=0.0)
        stale.frame = Frame(epoch=0, seq=9)
        assert channel.receive(stale) is False
        assert channel.stats.stale_epoch_dropped == 1

    def test_dead_endpoint_never_acks(self):
        sim, net, _ = _net(transport=ENGAGED)

        class Mortal(Sink):
            alive = False

        net.attach(1, Mortal())
        channel = net.channel(1)
        env = Envelope.make(0, 1, "x", sent_at=0.0)
        env.frame = Frame(epoch=0, seq=1)
        assert channel.receive(env) is False
        assert channel.stats.dead_endpoint_dropped == 1
        assert 0 not in channel._rx  # nothing recorded → nothing ACKed

    def test_ack_payload_consumed_by_transport(self):
        sim, net, sinks = _net(transport=ENGAGED)
        net.send(0, 1, "data")
        sim.run(until=500.0)
        # The standalone ACK from 1 never reaches node 0's application.
        assert all(not isinstance(e.payload, AckPayload)
                   for e in sinks[0].received)
        assert net.channel(1).stats.acks_sent == 1

    def test_corrupt_rejected_then_repaired(self):
        config = TransportConfig(base_rto_ms=10.0, jitter=0.0)
        faults = LinkFaultModel(
            per_kind={"str": FaultRates(corrupt=1.0)})
        sim, net, sinks = _net(transport=config, faults=faults)
        net.send(0, 1, "fragile")
        sim.run(until=30.0)
        assert sinks[1].received == []  # every copy corrupted so far
        assert net.stats.corrupt_rejected >= 1
        assert net.channel(1).stats.corrupt_rejected >= 1
        # Lift the corruption; the next retransmission gets through.
        faults.per_kind.clear()
        sim.run(until=500.0)
        assert [e.payload for e in sinks[1].received
                if not isinstance(e.payload, AckPayload)] == ["fragile"]


class TestNetworkStatsSplit:
    def test_drop_causes_are_separated(self):
        sim, net, sinks = _net(faults=LinkFaultModel(loss=1.0))
        net.adversary.drop_link(0, 1, until_ms=0.5)
        net.send(0, 1, "adversary-eats-this")
        sim.run(until=0.6)
        net.send(0, 1, "fabric-eats-this")
        sim.run()
        net.detach(1)
        # loss=1.0 would also eat this; bypass the fault draw by healing.
        net.faults.base = FaultRates()
        net.send(0, 1, "void-eats-this")
        sim.run()
        stats = net.stats
        assert stats.adversary_dropped == 1
        assert stats.fault_dropped == 1
        assert stats.undeliverable_dropped == 1
        assert stats.messages_dropped == 3  # backward-compatible sum
