"""Every guard on the delivery path, one test each.

The delivery path is a short fixed chain (docs/PERFORMANCE.md, "Per-event
paths"): ``Network.send_outbox`` -> ``Network._deliver`` ->
``ReplicaBase.deliver`` -> ``ReplicaBase._dispatch``.  What the longer
chains it replaced used to check on the way is checked here — the rest
(``frame_intact``, a negative CPU cost, an unknown signer) already has its
test in ``test_transport``, ``test_sim_process_cpu`` and ``test_crypto``.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.consensus.cluster import build_cluster
from repro.core.node import AchillesNode
from repro.errors import NetworkError, SimulationError
from repro.faults.byz import make_byzantine
from repro.net.latency import LAN_PROFILE
from repro.net.network import Network
from repro.sim.loop import Simulator

from tests.conftest import fast_config


@dataclass(frozen=True)
class Ping:
    tag: str


class Probe(AchillesNode):
    """An Achilles replica that also records every ``Ping`` it handles."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pings: list = []

    def on_Ping(self, msg: Ping, src: int) -> None:
        self.pings.append((msg.tag, src, self.sim.now))


def _cluster(byzantine: bool = False):
    """Three replicas that are never started: the only traffic is the
    test's own."""
    factories = None
    if byzantine:
        factories = {0: make_byzantine(Probe, ["garbage"])}
    cluster = build_cluster(Probe, fast_config(f=1), LAN_PROFILE, seed=3,
                            byzantine_factories=factories)
    node = cluster.nodes[0]
    intercepted: list = []
    if byzantine:
        real = node.byz.intercept_deliver

        def counted(payload, src):
            intercepted.append(payload)
            return real(payload, src)

        node.byz.intercept_deliver = counted
    return cluster, node, intercepted


@pytest.mark.parametrize("byzantine", [False, True],
                         ids=["honest", "byzantine"])
class TestStaleDispatch:
    """A message queued behind the CPU, or on the loopback, for a previous
    life of the node reaches no handler and no strategy."""

    def test_network_message_for_a_live_node_is_handled(self, byzantine):
        cluster, node, intercepted = _cluster(byzantine)
        cluster.network.send(1, 0, Ping("live"))
        cluster.sim.run(until=5.0)
        assert [tag for tag, _src, _at in node.pings] == ["live"]
        assert len(intercepted) == (1 if byzantine else 0)

    def test_network_message_queued_before_a_reboot_is_dropped(self, byzantine):
        cluster, node, intercepted = _cluster(byzantine)
        node.cpu.account(0.0, 3.0)          # busy: dispatch waits until 3 ms
        cluster.network.send(1, 0, Ping("stale"))
        cluster.sim.run(until=1.0)          # delivered, dispatch queued
        node.crash()
        cluster.sim.run(until=2.0)
        node.alive, node.epoch = True, node.epoch + 1   # a new life
        cluster.sim.run(until=10.0)
        assert node.pings == [] and intercepted == []

    def test_network_message_to_a_dead_node_is_dropped(self, byzantine):
        cluster, node, intercepted = _cluster(byzantine)
        node.cpu.account(0.0, 3.0)
        cluster.network.send(1, 0, Ping("dead"))
        cluster.sim.run(until=1.0)
        node.alive = False                   # same epoch, not alive
        cluster.sim.run(until=10.0)
        assert node.pings == [] and intercepted == []

    def test_loopback_message_is_handled_one_epsilon_later(self, byzantine):
        cluster, node, intercepted = _cluster(byzantine)
        node.run_work(lambda: node.send_to(0, Ping("self")))
        cluster.sim.run(until=5.0)
        assert [(tag, src) for tag, src, _at in node.pings] == [("self", 0)]
        assert cluster.network.stats.messages_sent == 0   # never on the wire

    def test_loopback_message_from_a_previous_life_is_dropped(self, byzantine):
        cluster, node, intercepted = _cluster(byzantine)
        node.run_work(lambda: node.send_to(0, Ping("self")))
        node.crash()                          # inside the loopback epsilon
        node.alive, node.epoch = True, node.epoch + 1
        cluster.sim.run(until=5.0)
        assert node.pings == [] and intercepted == []


class TestOutboxFlush:
    def test_outbox_flushed_after_a_crash_sends_nothing(self):
        cluster, node, _ = _cluster()

        def work():
            node.charge(5.0)                  # the outbox leaves at 5 ms
            node.broadcast(Ping("late"), include_self=True)

        node.run_work(work)
        cluster.sim.run(until=1.0)
        node.crash()
        node.alive, node.epoch = True, node.epoch + 1
        cluster.sim.run(until=20.0)
        assert cluster.network.stats.messages_sent == 0
        assert all(n.pings == [] for n in cluster.nodes)

    def test_outbox_of_a_live_node_leaves_when_its_work_is_done(self):
        cluster, node, _ = _cluster()

        def work():
            node.charge(5.0)
            node.broadcast(Ping("on time"), include_self=True)

        node.run_work(work)
        cluster.sim.run(until=20.0)
        assert cluster.network.stats.by_kind == {"Ping": 2}
        assert [len(n.pings) for n in cluster.nodes] == [1, 1, 1]
        assert all(at > 5.0 for n in cluster.nodes for _t, _s, at in n.pings)

    def test_detached_sender_still_raises(self):
        cluster, node, _ = _cluster()
        cluster.network.detach(0)
        with pytest.raises(NetworkError):
            node.run_work(lambda: node.send_to(1, Ping("x")))
            cluster.sim.run(until=5.0)      # the flush may wait for the CPU
        with pytest.raises(NetworkError):
            cluster.network.send_outbox(0, [(1, Ping("x"))])


class _BackInTime:
    """A latency profile whose messages would arrive before they left."""

    def sample(self, rng) -> float:
        return -5.0


class _Sink:
    def deliver(self, envelope) -> None:
        raise AssertionError("nothing may be delivered")


def test_an_arrival_in_the_past_is_refused_by_the_outbox_loop():
    sim = Simulator(seed=1)
    net = Network(sim, latency=_BackInTime())
    net.attach(0, _Sink())
    net.attach(1, _Sink())
    sim.run(until=10.0)
    with pytest.raises(SimulationError, match="into the past"):
        net.send_outbox(0, [(1, "x")])
    with pytest.raises(SimulationError, match="into the past"):
        net.send(0, 1, "x")
    assert len(sim.queue) == 0
