"""A whole outbox in one call against the same outbox sent one by one.

``Network.send_outbox`` hoists everything it can out of its loop (the
clock, the sender's channel, the fabric's models and their RNG); the
oracle is a twin network that gets the same outbox message by message —
``send`` for each peer, an envelope built in place for each self-addressed
entry, which is what ``ReplicaBase._transmit_outbox`` did before the loop
moved into the network.  Both twins must end in the same state: the same
``msg_id`` on every delivery, at the same instant, in the same order, the
same ``NetworkStats``, RNG states and channel sequence numbers — with the
link-fault model on (drop / duplicate / corrupt / extra delay), with an
adversary rule and a partition, with the transport stamping and
retransmitting, and with self-addressed entries anywhere in the outbox.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.net import message
from repro.net.faults import LinkFaultModel
from repro.net.latency import LAN_PROFILE
from repro.net.message import Envelope
from repro.net.network import Network
from repro.net.transport import TransportConfig
from repro.sim.loop import Simulator

NODES = 6


@dataclass(frozen=True)
class Note:
    """A payload that takes the ``_env_size`` memo (strings do not, so
    both arms of the envelope build are exercised)."""

    text: str


class Sink:
    alive = True

    def __init__(self, sim, node_id, log) -> None:
        self.sim, self.node_id, self.log = sim, node_id, log

    def deliver(self, envelope) -> None:
        frame = envelope.frame
        self.log.append((
            "deliver", self.sim.now, self.node_id, envelope.msg_id,
            envelope.src, envelope.payload, envelope.sent_at, envelope.size,
            envelope.duplicate,
            None if frame is None else (frame.epoch, frame.seq, frame.ack,
                                        frame.retransmit)))


class Twin:
    def __init__(self, seed, lossy, transport, hostile) -> None:
        self.sim = sim = Simulator(seed=seed)
        faults = LinkFaultModel(loss=0.15, dup=0.3, reorder=0.4, corrupt=0.2,
                                reorder_jitter_ms=2.0) if lossy else None
        self.net = net = Network(sim, latency=LAN_PROFILE, faults=faults,
                                 transport=TransportConfig() if transport
                                 else None)
        self.log: list = []
        for node_id in range(NODES):
            net.attach(node_id, Sink(sim, node_id, self.log))
        if hostile:
            net.adversary.delay_link(0, 2, 3.0)
            net.adversary.drop_link(None, 4)
            # Node 5 is in no group: it still reaches everyone.
            net.adversary.partition({0, 1, 2, 4}, {3})

    def loopback(self, envelope, cause) -> None:
        stats = self.net.stats
        self.log.append(("loopback", envelope.msg_id, envelope.src,
                         envelope.dst, envelope.payload, envelope.size,
                         envelope.sent_at, cause,
                         stats.messages_sent + stats.adversary_dropped))
        self.sim.schedule_fast(0.001, self.log.append,
                               ("looped", envelope.msg_id))

    def whole(self, src, outbox, cause) -> None:
        self.net.send_outbox(src, outbox, cause, self.loopback)

    def one_by_one(self, src, outbox, cause) -> None:
        for dst, payload in outbox:
            if dst == src:
                self.loopback(
                    Envelope.make(src, src, payload, self.sim.now), cause)
            else:
                self.net.send(src, dst, payload, cause)

    def state(self):
        net = self.net
        channels = {}
        for node_id in range(NODES):
            channel = net.channel(node_id)
            if channel is not None:
                channels[node_id] = sorted(
                    (dst, peer.next_seq, sorted(peer.inflight))
                    for dst, peer in channel._tx.items())
        return (self.log, self.sim.now, self.sim.events_processed,
                len(self.sim.queue), net.stats, net._rng.getstate(),
                None if net.faults is None else net.faults._rng.getstate(),
                channels, net.transport_totals())


def run_twin(how, seed, lossy, transport, hostile, program):
    """Run ``program`` on a fresh twin, ``msg_id`` counting from 1."""
    saved = message._envelope_ids
    message._envelope_ids = itertools.count(1)
    try:
        twin = Twin(seed, lossy, transport, hostile)
        send = getattr(twin, how)
        for gap_ms, src, outbox, cause in program:
            twin.sim.run(until=twin.sim.now + gap_ms)
            send(src, outbox, cause)
        # Bounded: a channel retransmits into a dropped link for ever.
        twin.sim.run(until=twin.sim.now + 150.0)
        return twin.state()
    finally:
        message._envelope_ids = saved


payloads = st.one_of(
    st.sampled_from(["a", "bb", "ccc"]),
    st.sampled_from([Note("x"), Note("yy"), Note("x" * 40)]),
)
outboxes = st.lists(st.tuples(st.integers(0, NODES - 1), payloads),
                    min_size=1, max_size=12)
programs = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.05, 1.0, 40.0]),
              st.integers(0, NODES - 1), outboxes, st.integers(0, 3)),
    min_size=1, max_size=6)


@given(seed=st.integers(0, 50), lossy=st.booleans(),
       transport=st.booleans(),
       hostile=st.booleans(), program=programs)
@settings(max_examples=150, deadline=None)
def test_whole_outbox_equals_message_by_message(seed, lossy, transport,
                                                hostile, program):
    args = (seed, lossy, transport, hostile, program)
    assert run_twin("whole", *args) == run_twin("one_by_one", *args)


def test_self_addressed_entry_keeps_its_place_in_the_id_and_event_order():
    """The broadcast-then-self outbox of every leader, with the self entry
    moved to the middle."""
    vote = Note("vote")
    outbox = [(1, vote), (2, vote), (0, vote), (3, vote), (5, vote)]
    program = [(0.0, 0, outbox, 9)]
    whole = run_twin("whole", 1, False, True, False, program)
    assert whole == run_twin("one_by_one", 1, False, True, False, program)
    log = whole[0]
    loopback = [entry for entry in log if entry[0] == "loopback"]
    assert [(e[1], e[7], e[8]) for e in loopback] == [(3, 9, 2)]
    delivered = sorted(e[3] for e in log if e[0] == "deliver")
    assert delivered == [1, 2, 4, 5]        # msg_id 3 never met the fabric
    # Four data frames; the peers' ACKs back to node 0 are not data.
    assert whole[4].by_kind["Note"] == 4
    # Stamped by the sender's own channel, one sequence number per peer,
    # none for the loopback.
    assert whole[7][0] == [(1, 2, []), (2, 2, []), (3, 2, []), (5, 2, [])]
    assert not any(whole[7][node_id] for node_id in range(1, NODES))
