"""A message's physics against the model methods it used to call.

``Network.send_outbox`` computes each message's fate in one loop body:
the adversary's verdict (only while an intercept, a rule or a partition
is installed), NIC serialization on the sender's transmit queue, the
one-way latency draw, the partial-synchrony shaping and, at the far end,
the integrity check; ``ReplicaBase.deliver`` reserves the receive cost on
the node's CPU.  The oracles below are the bodies those steps had when
each was a method of its model — ``BandwidthModel.serialize``,
``LatencyProfile.sample``, ``PartialSynchrony.actual_delay``,
``NetworkAdversary.verdict``, ``NodeCosts.recv_cost`` with
``CpuModel.account`` — driven by a twin network that calls them message by
message.  Both twins must end in the same state: the same arrivals at the
same instants with the same ``msg_id``s, the same ``NetworkStats``, RNG
states, NIC free-at times and byte counts, across every latency model,
synchrony regime, bandwidth, adversary and fault-model setting.  The
``network`` stream is read in blocks after GST, so it is compared by its
logical position (``tests.conftest.stream_position``), not its raw state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.cluster import build_cluster
from repro.consensus.config import NodeCosts
from repro.core.node import AchillesNode
from repro.errors import SimulationError
from repro.net import message
from repro.net.adversary import LinkRule
from repro.net.bandwidth import BandwidthModel
from repro.net.faults import LinkFaultModel
from repro.net.geo import GeoLatencyModel
from repro.net.latency import (
    LAN_PROFILE,
    MIN_ONE_WAY_MS,
    WAN_PROFILE,
    FixedLatency,
    LatencyProfile,
)
from repro.net.message import HEADER_BYTES, Envelope, intern_size
from repro.net.network import Network
from repro.net.synchrony import PartialSynchrony
from repro.net.transport import TransportConfig, frame_intact, seal_envelope
from repro.sim.cpu import CpuModel
from repro.sim.loop import Simulator

from tests.conftest import fast_config, normal_block_starts, stream_position

NODES = 5


# ----------------------------------------------------------------------
# The oracles: each step's body as a method of its model.
# ----------------------------------------------------------------------
def serialize(bandwidth, node_id, now, size_bytes):
    """``BandwidthModel.serialize``: occupy the NIC, return when the last
    byte leaves."""
    if bandwidth.bytes_per_ms <= 0:
        return now
    try:
        free_at = bandwidth._tx_free_at[node_id]
        bandwidth.bytes_sent[node_id] += size_bytes
    except KeyError:
        free_at = bandwidth._tx_free_at.get(node_id, 0.0)
        bandwidth.bytes_sent[node_id] = \
            bandwidth.bytes_sent.get(node_id, 0) + size_bytes
    finish = (now if now > free_at else free_at) \
        + size_bytes / bandwidth.bytes_per_ms
    bandwidth._tx_free_at[node_id] = finish
    return finish


def sample(latency, rng):
    """``LatencyProfile.sample``; any other flat profile draws itself."""
    if type(latency) is not LatencyProfile:
        return latency.sample(rng)
    delay = rng.gauss(latency.rtt_ms / 2.0, latency.jitter_ms / 2.0)
    return delay if delay > MIN_ONE_WAY_MS else MIN_ONE_WAY_MS


def actual_delay(synchrony, src, dst, now, nominal, rng):
    """``PartialSynchrony.actual_delay``."""
    if now >= synchrony.gst_ms:
        delta = synchrony.delta_ms
        return delta if delta < nominal else nominal
    if synchrony.pre_gst_delay_fn is not None:
        extra = synchrony.pre_gst_delay_fn(src, dst, now)
    else:
        extra = rng.uniform(0.0, synchrony.pre_gst_max_extra_ms)
    delay = nominal + max(0.0, extra)
    latest = (synchrony.gst_ms - now) + synchrony.delta_ms
    return min(delay, latest)


def verdict(adversary, src, dst, payload, now):
    """``NetworkAdversary.verdict``: None drops, else the extra delay."""
    if adversary.intercept is not None:
        adversary.intercept(src, dst, payload)
    if adversary._partitions and adversary._partitioned(src, dst):
        adversary.dropped += 1
        return None
    for rule in adversary.rules:
        if rule.matches(src, dst, payload, now):
            if rule.drop:
                adversary.dropped += 1
                return None
            return rule.extra_delay_ms
    return 0.0


def recv_cost(costs, size_bytes):
    """``NodeCosts.recv_cost``."""
    return costs.msg_recv_ms + costs.deserialize_per_kb_ms * (size_bytes / 1024.0)


class OracleNetwork(Network):
    """The fabric as it was when every step was a call on its model."""

    def send_outbox(self, src, outbox, cause=0, loopback=None, stamped=None):
        now = self.sim.now
        stats = self.stats
        sample_link = self._sample_link
        rng = self._rng
        channel = self._channels.get(src) if stamped is None else None
        for dst, payload in outbox:
            envelope = stamped
            if envelope is None:
                try:
                    size = payload._env_size
                except AttributeError:
                    size = intern_size(payload)
                envelope = Envelope(src, dst, payload, size, now)
                if dst == src and loopback is not None:
                    loopback(envelope, cause)
                    continue
                if channel is not None:
                    channel.stamp(envelope)
            extra = verdict(self.adversary, src, dst, payload, now)
            if extra is None:
                stats.adversary_dropped += 1
                continue
            size = envelope.size
            kind = payload.__class__.__name__
            stats.messages_sent += 1
            stats.bytes_sent += size
            stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
            if self._seal_sends and envelope.auth is None:
                seal_envelope(envelope)
            fate = self.faults.verdict(src, dst, kind) \
                if self.faults is not None else None
            departure = serialize(self.bandwidth, src, now, size)
            if sample_link is not None:
                nominal = sample_link(src, dst, rng)
            else:
                nominal = sample(self.latency, rng)
            arrival = departure + actual_delay(self.synchrony, src, dst, now,
                                               nominal, rng) + extra
            if fate is not None and (fate.drop or fate.duplicate
                                     or fate.extra_delay_ms or fate.corrupt):
                arrival += fate.extra_delay_ms
                copy = envelope.fabric_duplicate() if fate.duplicate else None
                if fate.corrupt:
                    envelope.corrupt()
                    stats.fault_corrupted += 1
                if copy is not None:
                    if fate.corrupt_dup:
                        copy.corrupt()
                        stats.fault_corrupted += 1
                    stats.fault_duplicated += 1
                    self.sim.schedule_at_fast(arrival + fate.dup_delay_ms,
                                              self._deliver, copy)
                if fate.drop:
                    stats.fault_dropped += 1
                    continue
            if arrival < now:
                raise SimulationError(
                    f"cannot schedule into the past (time={arrival}, now={now})")
            self.sim.queue.push_fast(arrival, self._deliver, (envelope,))

    def _deliver(self, envelope):
        endpoint = self._endpoints.get(envelope.dst)
        if endpoint is None:
            self.stats.undeliverable_dropped += 1
            return
        channel = self._channels.get(envelope.dst)
        if not frame_intact(envelope):
            self.stats.corrupt_rejected += 1
            if channel is not None:
                channel.stats.corrupt_rejected += 1
            return
        if channel is not None and not channel.receive(envelope):
            return
        if envelope.duplicate:
            self.stats.duplicates_delivered += 1
        self.stats.messages_delivered += 1
        endpoint.deliver(envelope)


# ----------------------------------------------------------------------
# Twins
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Note:
    """A payload of ``size`` body bytes; it takes the ``_env_size`` memo."""

    tag: str
    size: int

    def wire_size(self) -> int:
        return self.size


class Sink:
    def __init__(self, sim, node_id, log) -> None:
        self.sim, self.node_id, self.log = sim, node_id, log

    def deliver(self, envelope) -> None:
        self.log.append(("deliver", self.sim.now, self.node_id,
                         envelope.msg_id, envelope.src, envelope.payload,
                         envelope.size, envelope.duplicate))


LATENCIES = {
    "lan": lambda: LAN_PROFILE,
    "wan": lambda: WAN_PROFILE,
    "fixed": lambda: FixedLatency("fixed", 0.7),
    "geo": lambda: GeoLatencyModel.spread_across(NODES),
}

SYNCHRONIES = {
    # Δ below, at and far above the profiles' one-way means, so the
    # post-GST cap sometimes bites.
    "post-gst": lambda delta: PartialSynchrony(delta_ms=delta, gst_ms=0.0),
    "pre-gst": lambda delta: PartialSynchrony(
        delta_ms=delta, gst_ms=60.0, pre_gst_max_extra_ms=30.0),
    "pre-gst-fn": lambda delta: PartialSynchrony(
        delta_ms=delta, gst_ms=60.0,
        pre_gst_delay_fn=lambda s, d, t: (3 * s + 7 * d + t) % 11.0 - 2.0),
}


class Twin:
    def __init__(self, network_class, seed, latency, synchrony, delta,
                 bandwidth, corrupting, transport) -> None:
        self.sim = sim = Simulator(seed=seed)
        faults = LinkFaultModel(loss=0.1, dup=0.2, reorder=0.2,
                                corrupt=0.3) if corrupting else None
        self.net = network_class(
            sim, latency=LATENCIES[latency](),
            bandwidth=BandwidthModel() if bandwidth == "10gbps"
            else BandwidthModel.unlimited(),
            synchrony=SYNCHRONIES[synchrony](delta), faults=faults,
            transport=TransportConfig() if transport else None)
        self.log: list = []
        for node_id in range(NODES):
            self.net.attach(node_id, Sink(sim, node_id, self.log))

    def install(self, action) -> None:
        """Change the adversary between two outboxes."""
        adversary = self.net.adversary
        if action == "delay":
            adversary.add_rule(LinkRule(src=1, extra_delay_ms=2.5,
                                        until_ms=self.sim.now + 30.0))
        elif action == "drop":
            adversary.add_rule(LinkRule(
                dst=3, drop=True, predicate=lambda p: isinstance(p, Note)))
        elif action == "partition":
            adversary.partition({0, 1}, {2, 3})
        elif action == "intercept":
            adversary.intercept = lambda s, d, p: self.log.append(
                ("intercept", self.sim.now, s, d, p))
        elif action == "clear":
            adversary.clear()
            adversary.intercept = None

    def state(self, block_starts):
        net = self.net
        return (self.log, self.sim.now, self.sim.events_processed,
                net.stats, stream_position(net, block_starts),
                None if net.faults is None else net.faults._rng.getstate(),
                net.bandwidth._tx_free_at, net.bandwidth.bytes_sent,
                net.adversary.dropped, net.transport_totals())


def run_twin(network_class, setup, program):
    """Run ``program`` on a fresh twin, ``msg_id`` counting from 1."""
    saved = message._envelope_ids
    message._envelope_ids = itertools.count(1)
    try:
        with normal_block_starts() as block_starts:
            twin = Twin(network_class, *setup)
            for gap_ms, action, src, outbox in program:
                twin.sim.run(until=twin.sim.now + gap_ms)
                twin.install(action)
                twin.net.send_outbox(src, outbox)
            # Bounded: a channel retransmits into a dropped link for ever.
            twin.sim.run(until=twin.sim.now + 200.0)
            return twin.state(block_starts)
    finally:
        message._envelope_ids = saved


#: Small payloads, and ones that keep a 10 Gbps NIC busy for longer than
#: a LAN hop (300 000 bytes: 0.24 ms).
payloads = st.sampled_from(["a", "bbbb", Note("x", 40), Note("y", 300_000)])
outboxes = st.lists(st.tuples(st.integers(0, NODES - 1), payloads),
                    min_size=1, max_size=8)
programs = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.02, 1.0, 25.0]),
              st.sampled_from([None, None, "delay", "drop", "partition",
                               "intercept", "clear"]),
              st.integers(0, NODES - 1), outboxes),
    min_size=1, max_size=8)
setups = st.tuples(
    st.integers(0, 50), st.sampled_from(sorted(LATENCIES)),
    st.sampled_from(sorted(SYNCHRONIES)),
    st.sampled_from([0.045, 0.7, 20.0, 1000.0]),
    st.sampled_from(["unlimited", "10gbps"]), st.booleans(), st.booleans())


@given(setup=setups, program=programs)
@settings(max_examples=150, deadline=None)
def test_the_wire_equals_the_model_calls(setup, program):
    assert run_twin(Network, setup, program) \
        == run_twin(OracleNetwork, setup, program)


@pytest.mark.parametrize("latency", sorted(LATENCIES))
@pytest.mark.parametrize("synchrony", sorted(SYNCHRONIES))
def test_every_latency_and_synchrony_draws_the_same_stream(latency, synchrony):
    """A broadcast every few ms across GST, on an idle, then a hostile,
    then a healed adversary, with the NIC queueing a large payload."""
    big = Note("big", 200_000)
    program = [(gap, action, src, [(dst, big if dst == 2 else "v")
                                   for dst in range(NODES)])
               for gap, action, src in [
                   (0.0, None, 0), (5.0, None, 1), (20.0, "partition", 2),
                   (20.0, "intercept", 3), (20.0, "clear", 4),
                   (0.0, None, 0), (30.0, "delay", 1)]]
    for bandwidth in ("unlimited", "10gbps"):
        for corrupting in (False, True):
            setup = (7, latency, synchrony, 0.7, bandwidth, corrupting, None)
            assert run_twin(Network, setup, program) \
                == run_twin(OracleNetwork, setup, program)


# ----------------------------------------------------------------------
# Receive side: the CPU reservation of an arriving message.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Ping:
    tag: int


class Probe(AchillesNode):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pings: list = []

    def on_Ping(self, msg, src) -> None:
        self.pings.append((msg.tag, self.sim.now))


def _probe(costs):
    """A replica of a never-started cluster: the only traffic is the
    test's own."""
    cluster = build_cluster(Probe, fast_config(f=1, costs=costs),
                            LAN_PROFILE, seed=3)
    return cluster, cluster.nodes[0]


@given(msg_recv_ms=st.sampled_from([0.0, 0.003, 0.25]),
       per_kb_ms=st.sampled_from([0.0, 0.0015, 0.4]),
       arrivals=st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.001, 0.3, 2.0]),
                                   st.integers(0, 400_000)),
                         min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_a_delivery_reserves_the_receive_cost(msg_recv_ms, per_kb_ms,
                                              arrivals):
    costs = NodeCosts(msg_recv_ms=msg_recv_ms, deserialize_per_kb_ms=per_kb_ms)
    cluster, node = _probe(costs)
    oracle = CpuModel()
    expected = []
    for i, (gap_ms, body) in enumerate(arrivals):
        cluster.sim.run(until=cluster.sim.now + gap_ms)
        now = cluster.sim.now
        size = HEADER_BYTES + body
        ready = oracle.account(now, recv_cost(costs, size))
        expected.append((i, ready if ready > now else now))
        node.deliver(Envelope(1, 0, Ping(i), size, now))
        assert node.cpu.busy_until == oracle.busy_until
    cluster.sim.run(until=cluster.sim.now + 1_000.0)
    assert node.pings == expected


def test_a_negative_receive_cost_is_refused():
    _cluster, node = _probe(NodeCosts(msg_recv_ms=-0.5))
    with pytest.raises(ValueError, match="negative CPU cost"):
        node.deliver(Envelope.make(1, 0, Ping(0), 0.0))
