"""The network's delays and the open-loop arrivals, replayed on the stdlib.

Two random streams carry most of a run's draws: the ``network`` stream
(one Gaussian delay per message) and the ``open-loop`` stream (one
exponential gap per arrival).  However the simulator reads them, every
value must be the float ``random.Random.gauss`` / ``expovariate`` would
have returned on a fresh fork of the same stream.  The replays below make
exactly those stdlib calls and compare with ``==``:

* ``Network`` delays for flat Gaussian profiles (LAN, WAN) and for a geo
  matrix, across a GST crossing: before GST a ``uniform`` interleaves
  with each ``gauss`` on the same stream, the crossing leaves a pending
  ``gauss_next``, and a few thousand post-GST draws follow;
* ``OpenLoopGenerator`` arrival instants across its start, a
  ``rate_tps`` change, a pause (``0``) and a resume;
* the block readers themselves (``normal_block``, ``exponential_block``),
  with the distribution's parameters changing on every draw.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.client.workload import OpenLoopGenerator, QueueSource
from repro.net.bandwidth import BandwidthModel
from repro.net.geo import GeoLatencyModel
from repro.net.latency import LAN_PROFILE, MIN_ONE_WAY_MS, WAN_PROFILE
from repro.net.network import Network
from repro.net.synchrony import PartialSynchrony
from repro.sim.loop import (
    DRAW_BLOCK,
    Simulator,
    exponential_block,
    normal_block,
)

NODES = 5
GST_MS = 10.0
DELTA_MS = 1000.0
PRE_GST_EXTRA_MS = 3.0

PROFILES = {
    "lan": lambda: LAN_PROFILE,
    "wan": lambda: WAN_PROFILE,
    "geo": lambda: GeoLatencyModel.spread_across(NODES),
}


class Sink:
    def __init__(self, sim, arrivals) -> None:
        self.sim, self.arrivals = sim, arrivals

    def deliver(self, envelope) -> None:
        self.arrivals[envelope.payload] = self.sim.now


def broadcasts(rounds: int, gap_ms: float):
    """``(instant, src, outbox)``: every node in turn sends to all others,
    one sender every ``gap_ms``; payloads name the message."""
    for i in range(rounds):
        src = i % NODES
        yield i * gap_ms, src, [(dst, (i, dst)) for dst in range(NODES)
                                if dst != src]


def stdlib_arrivals(seed, latency, program):
    """Each message's arrival instant, drawn message by message through the
    stdlib on a fresh fork of the ``network`` stream; also whether a
    ``gauss_next`` was pending when the first post-GST message was sent."""
    rng = random.Random(f"{seed}/network")
    arrivals, pending_at_gst = {}, None
    for now, src, outbox in program:
        if now >= GST_MS and pending_at_gst is None:
            pending_at_gst = rng.gauss_next is not None
        for dst, payload in outbox:
            if isinstance(latency, GeoLatencyModel):
                one_way = latency.link_rtt(src, dst) / 2.0
                delay = max(MIN_ONE_WAY_MS, rng.gauss(
                    one_way, one_way * latency.jitter_fraction))
            else:
                delay = rng.gauss(latency.rtt_ms / 2.0, latency.jitter_ms / 2.0)
                if delay < MIN_ONE_WAY_MS:
                    delay = MIN_ONE_WAY_MS
            if now < GST_MS:
                extra = rng.uniform(0.0, PRE_GST_EXTRA_MS)
                delay = min(delay + max(0.0, extra), (GST_MS - now) + DELTA_MS)
            elif DELTA_MS < delay:
                delay = DELTA_MS
            arrivals[payload] = now + delay + 0.0
    return arrivals, pending_at_gst


def network_arrivals(seed, latency, program):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=latency, bandwidth=BandwidthModel.unlimited(),
                  synchrony=PartialSynchrony(
                      delta_ms=DELTA_MS, gst_ms=GST_MS,
                      pre_gst_max_extra_ms=PRE_GST_EXTRA_MS))
    arrivals: dict = {}
    for node_id in range(NODES):
        net.attach(node_id, Sink(sim, arrivals))
    for now, src, outbox in program:
        sim.run(until=now)
        net.send_outbox(src, outbox)
    sim.run(until=sim.now + 1_000.0)
    return arrivals


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_network_delays_are_the_stdlib_draws(profile, seed):
    """One message and three broadcasts before GST (13 ``gauss`` calls,
    each followed by a ``uniform``) leave ``gauss_next`` pending at GST;
    600 post-GST broadcasts draw 2 400 more delays."""
    program = [(0.0, 0, [(1, "first")])] + list(broadcasts(603, 3.7))
    assert sum(len(outbox) for now, _, outbox in program
               if now < GST_MS) == 13
    expected, pending_at_gst = stdlib_arrivals(seed, PROFILES[profile](),
                                               program)
    assert pending_at_gst
    assert len(expected) == 1 + 603 * (NODES - 1)
    assert network_arrivals(seed, PROFILES[profile](), program) == expected


# ----------------------------------------------------------------------
# Open-loop arrivals
# ----------------------------------------------------------------------
#: ``(instant, rate_tps)``: the generator starts at the first, each later
#: one sets ``rate_tps`` (0 pauses, a positive rate after it resumes).
SCHEDULE = [(0.0, 80_000.0), (12.5, 150_000.0), (20.0, 0.0),
            (26.0, 50_000.0), (40.0, 200_000.0)]
END_MS = 52.0


def stdlib_instants(seed, schedule, end_ms):
    """Arrival instants drawn one gap at a time through the stdlib: a gap
    is drawn at its arrival with the rate in force there; a pause drops
    the gap already drawn, a resume draws a fresh one from its instant."""
    rng = random.Random(f"{seed}/open-loop")
    instants, at, rate = [], float("inf"), 0.0
    bounds = [t for t, _ in schedule[1:]] + [end_ms]
    for (t, new_rate), until in zip(schedule, bounds):
        if new_rate <= 0:
            at = float("inf")
        elif rate <= 0:
            at = t + rng.expovariate(new_rate / 1000.0)
        rate = new_rate
        while at <= until:
            instants.append(at)
            at = at + rng.expovariate(rate / 1000.0)
    return instants


def generator_instants(seed, schedule, end_ms):
    sim = Simulator(seed=seed)
    queue = QueueSource()
    start, rate = schedule[0]
    generator = OpenLoopGenerator(sim, queue, rate_tps=rate)
    sim.run(until=start)
    generator.start()
    for t, rate in schedule[1:]:
        sim.run(until=t)
        queue.pending()  # a read between changes catches up too
        generator.rate_tps = rate
    sim.run(until=end_ms)
    generator.stop()
    sim.run(until=end_ms + 1.0)
    return [tx.created_at for tx in queue.take(1 << 30, sim.now)]


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_open_loop_instants_are_the_stdlib_draws(seed):
    expected = stdlib_instants(seed, SCHEDULE, END_MS)
    assert len(expected) > 3_000
    assert generator_instants(seed, SCHEDULE, END_MS) == expected


# ----------------------------------------------------------------------
# The block readers
# ----------------------------------------------------------------------
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(seed=st.integers(0, 2**64), pending=st.booleans(),
       count=st.integers(1, 3 * DRAW_BLOCK + 3),
       params=st.lists(st.tuples(finite, finite), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_a_normal_block_is_what_gauss_draws(seed, pending, count, params):
    """``mu + z * sigma`` over the blocks equals ``gauss(mu, sigma)`` draw
    for draw, with ``mu``/``sigma`` changing on every draw, a pending
    ``gauss_next`` (or none) before the first block, and the two streams
    in one state wherever a block ends."""
    blocks, stdlib = random.Random(seed), random.Random(seed)
    if pending:
        blocks.gauss(0.0, 1.0)
        stdlib.gauss(0.0, 1.0)
    normals, drawn = [], 0
    for i in range(count):
        mu, sigma = params[i % len(params)]
        if drawn == len(normals):
            normals, drawn = normal_block(blocks), 0
        assert mu + normals[drawn] * sigma == stdlib.gauss(mu, sigma)
        drawn += 1
        if drawn == len(normals):
            assert blocks.getstate() == stdlib.getstate()


@given(seed=st.integers(0, 2**64), count=st.integers(1, 3 * DRAW_BLOCK + 3),
       rates=st.lists(st.floats(1e-6, 1e9), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_an_exponential_block_is_what_expovariate_draws(seed, count, rates):
    blocks, stdlib = random.Random(seed), random.Random(seed)
    exponentials, drawn = [], 0
    for i in range(count):
        lambd = rates[i % len(rates)]
        if drawn == len(exponentials):
            exponentials, drawn = exponential_block(blocks), 0
        assert exponentials[drawn] / lambd == stdlib.expovariate(lambd)
        drawn += 1
        if drawn == len(exponentials):
            assert blocks.getstate() == stdlib.getstate()
