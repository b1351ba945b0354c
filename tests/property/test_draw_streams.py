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
* the block readers themselves (``normal_block``, ``exponential_block``,
  ``word_block``), with the distribution's parameters changing on every
  draw;
* the workload generators, which decode their draws from the
  ``workload`` and ``shard-open-loop`` streams' words: their output is
  pinned byte for byte, and every decoded ``randrange``, ``random``,
  ``expovariate``, ``lognormvariate``, ``sample`` and ``choice`` is held
  to the stdlib's with a block boundary on every word of an arrival.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.client.workload import (OpenLoopGenerator, QueueSource,
                                   ShardedOpenLoopGenerator)
from repro.net.bandwidth import BandwidthModel
from repro.net.geo import GeoLatencyModel
from repro.net.latency import LAN_PROFILE, MIN_ONE_WAY_MS, WAN_PROFILE
from repro.net.network import Network
from repro.net.synchrony import PartialSynchrony
from repro.shard.ranges import ShardMap
from repro.sim.loop import (
    DRAW_BLOCK,
    Simulator,
    exponential_block,
    normal_block,
    word_block,
)
from repro.workload.generators import ArrivalEngine, TrafficGenerator
from repro.workload.spec import ChurnEvent, FlashCrowd, WorkloadSpec

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


# ----------------------------------------------------------------------
# Pinned streams: what the workload generators emit, byte for byte
# ----------------------------------------------------------------------
#: ``TrafficGenerator`` specs, one per draw shape: Poisson and lognormal
#: gaps, churn to a power of two and to one client (``randrange(1)``
#: still draws, and redraws half the time), a flash crowd, a diurnal
#: curve, and a key space of 0 (no key draw) and of 1 000.
TRAFFIC_SPECS = {
    "poisson": dict(arrival="poisson"),
    "lognormal": dict(arrival="lognormal", lognormal_sigma=1.3),
    "churn-pow2": dict(churn=(ChurnEvent(8.0, 1024), ChurnEvent(20.0, 777))),
    "churn-one": dict(arrival="lognormal", clients=4,
                      churn=(ChurnEvent(6.0, 1), ChurnEvent(18.0, 3))),
    "flash": dict(flash_crowds=(FlashCrowd(5.0, 6.0, 4.0),
                                FlashCrowd(9.0, 10.0, 0.5))),
    "diurnal": dict(arrival="lognormal", diurnal_amplitude=0.6,
                    diurnal_period_ms=9.0),
    "keyless": dict(key_space=0),
    "keys-1000": dict(arrival="lognormal", key_space=1_000, zipf_s=0.8),
}


def pin(value) -> str:
    """A short digest of ``repr(value)`` (floats repr exactly)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def traffic_stream(spec: WorkloadSpec, seed: int):
    """The generator's record, mempool and counters after 30 ms."""
    sim = Simulator(seed=seed)
    queue = QueueSource()
    generator = TrafficGenerator(sim, queue, spec, record=[])
    generator.start()
    sim.run(until=30.0)
    txs = [(t.client_id, t.tx_id, t.payload, t.payload_size, t.created_at)
           for t in queue.take(1 << 30, sim.now)]
    engine = generator.engine
    return (generator.record, txs, engine.flash_arrivals,
            engine.churn_transitions)


TRAFFIC_PINS = {
    "churn-one": [
        "49861aa691069d7a", "fae7538f572b7f11", "54cbf01747f31f4e",
        "caf20228090652a1", "80376bc3b558113e",
    ],
    "churn-pow2": [
        "fba7b61b4e1cf0a8", "5c46e7e6028ba3f0", "e166cee32535b1ae",
        "2374e7dc6544234f", "15f3bdd945610fdd",
    ],
    "diurnal": [
        "02bdbef7cdc2b0b3", "4878fda1d8fb1e1d", "7b35454739ef32f5",
        "d56f2d02ee2f4b07", "db8492f009a2a5da",
    ],
    "flash": [
        "d692ccdf80e8464c", "67ba4ece92e546a0", "f59ca94376f1df6f",
        "105b8ee94ac46e59", "52b8ad3f0948957f",
    ],
    "keyless": [
        "621840c8d21696a6", "49136c9c3459d641", "bacb556997f9e4f7",
        "1a9c8d1dfd8fbda1", "d96833cbef96794c",
    ],
    "keys-1000": [
        "71e89df99ee63074", "a938d7ba5606cb50", "eff9360a019897bc",
        "73aca302a9c336cf", "451829cd319137a2",
    ],
    "lognormal": [
        "a37d85a97fe29b01", "3b8dd00ba679b7b3", "ff8dc52af37ee19b",
        "5b017049659a56e7", "adbf565875762a73",
    ],
    "poisson": [
        "ad49d503f3c2e8e0", "04766d2b38b55c7e", "4596724d35c0e285",
        "a600b25a8e66b844", "fc504734b2f7c916",
    ],
}


@pytest.mark.parametrize("name", sorted(TRAFFIC_SPECS))
def test_traffic_records_are_pinned(name):
    spec = WorkloadSpec(**{"base_rate_tps": 120_000.0, "clients": 5_000,
                           **TRAFFIC_SPECS[name]})
    assert [pin(traffic_stream(spec, seed)) for seed in range(5)] \
        == TRAFFIC_PINS[name]


class ShardRecorder:
    """The router and the 2PC manager a sharded generator drives, each
    call kept as ``(time, kind, keys, values)``."""

    def __init__(self, sim: Simulator, shards: int) -> None:
        self.sim, self.shard_map, self.log = sim, ShardMap.uniform(shards), []

    def submit_write(self, key, value, payload_size=0) -> None:
        self.log.append((self.sim.now, "write", (key,), (value,)))

    def begin(self, writes) -> None:
        self.log.append((self.sim.now, "txn", tuple(writes),
                         tuple(writes.values())))


def sharded_stream(shards: int, cross: float, seed: int,
                   keys_per_shard: int = 32, until: float = 40.0,
                   offset: int = 0, cls=ShardedOpenLoopGenerator) -> list:
    """The router's and the 2PC manager's calls until ``until``, the
    stream advanced ``offset`` words first."""
    sim = Simulator(seed=seed)
    recorder = ShardRecorder(sim, shards)
    generator = cls(sim, recorder, recorder, rate_tps=20_000.0,
                    cross_fraction=cross, keys_per_shard=keys_per_shard)
    generator._rng.getrandbits(32 * offset)
    generator.start()
    sim.run(until=until)
    return recorder.log


SHARDED_PINS = {
    (2, 0.0): [
        "c59b52a61781d77c", "445df46e5ca39599", "4223b0c230fac1b1",
    ],
    (2, 0.1): [
        "cbe9c57c1f61f05e", "6f0578f127cf2122", "9c01f3b019279741",
    ],
    (2, 1.0): [
        "055e44a48bfeb194", "115a461e96260f06", "73f2ce77c64e97fe",
    ],
    (4, 0.0): [
        "c89b57cc0c25ee9e", "ed3ac9be2b054d97", "01f4a7880b78f6b9",
    ],
    (4, 0.1): [
        "5ae06af7dd2f5eb0", "61f1119561495139", "72bbaf3f108a29b0",
    ],
    (4, 1.0): [
        "8ef2795514363acb", "a2933a9ef1aa07c5", "4d4b3c2aa75dbf9b",
    ],
}


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("cross", [0.0, 0.1, 1.0])
def test_sharded_sequences_are_pinned(shards, cross):
    assert [pin(sharded_stream(shards, cross, seed)) for seed in range(3)] \
        == SHARDED_PINS[shards, cross]


# ----------------------------------------------------------------------
# Draws decoded from the stream's words
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 2**64), blocks=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_a_word_block_is_what_getrandbits_draws(seed, blocks):
    words, stdlib = random.Random(seed), random.Random(seed)
    for _ in range(blocks):
        assert list(word_block(words)) == [stdlib.getrandbits(32)
                                           for _ in range(DRAW_BLOCK)]
        assert words.getstate() == stdlib.getstate()


#: The stream is advanced this many words before the first arrival, so a
#: block boundary falls on every word of an arrival's draws.
OFFSETS = range(12)


def engine_records(spec: WorkloadSpec, seed: int, offset: int,
                   until: float) -> list:
    """``(instant, client, rank)`` of every arrival by ``until``, drawn one
    at a time through ``ArrivalEngine`` (the stdlib's ``randrange``,
    ``random``, ``expovariate`` and ``lognormvariate``); an idle probe
    draws only the next gap."""
    rng = random.Random(f"{seed}/workload")
    rng.getrandbits(32 * offset)
    engine = ArrivalEngine(spec, rng)
    records, at, gap = [], 0.0, engine.next_gap_ms(0.0)
    while True:
        at = at + abs(gap)
        if at > until:
            return records
        if gap > 0:
            records.append((at, engine.next_client(at),
                            engine.next_key_rank(at)))
        gap = engine.next_gap_ms(at)


def generator_records(spec: WorkloadSpec, seed: int, offset: int,
                      until: float) -> list:
    sim = Simulator(seed=seed)
    generator = TrafficGenerator(sim, QueueSource(), spec, record=[])
    generator.engine.rng.getrandbits(32 * offset)
    generator.start()
    sim.run(until=until)
    return generator.record


@pytest.mark.parametrize("bound", [1, 2, 3, 2**10 - 1, 2**10, 2**10 + 1,
                                   2**31 - 1, 2**31, 2**31 + 1, 100_000,
                                   2**32 - 1])
def test_randrange_is_decoded_draw_for_draw(bound):
    """``randrange(bound)`` (the client) between ``expovariate`` gaps:
    one word each, a power of two never redrawn, ``2**k + 1`` and ``1``
    redrawn about half the time."""
    spec = WorkloadSpec(base_rate_tps=40_000.0, clients=bound, key_space=0)
    for offset in OFFSETS:
        expected = engine_records(spec, 3, offset, 12.0)
        assert len(expected) > 400
        assert generator_records(spec, 3, offset, 12.0) == expected


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("arrival", ["poisson", "lognormal"])
def test_interleaved_draws_are_decoded_draw_for_draw(arrival, seed):
    """``randrange``, ``random`` (the Zipf rank) and the gap in turn, over
    churn steps to one client and to three, a flash crowd and an outage
    answered with idle probes; Kinderman-Monahan rejects a try in four."""
    spec = WorkloadSpec(
        base_rate_tps=30_000.0, arrival=arrival, lognormal_sigma=1.4,
        clients=5, churn=(ChurnEvent(4.0, 1), ChurnEvent(9.0, 3)),
        diurnal_amplitude=0.5, diurnal_period_ms=7.0,
        flash_crowds=(FlashCrowd(2.0, 3.0, 6.0), FlashCrowd(13.0, 100.0,
                                                            1e-14)),
        key_space=50)
    for offset in OFFSETS:
        expected = engine_records(spec, seed, offset, 200.0)
        assert len(expected) > 200
        assert generator_records(spec, seed, offset, 200.0) == expected


class StdlibShardedGenerator(ShardedOpenLoopGenerator):
    """The sharded generator's draws made through the stdlib, one call
    each: its body before the draws were decoded from words."""

    def _schedule_next(self) -> None:
        if self._stopped or self.rate_tps <= 0:
            return
        self.sim.schedule_fast(self._rng.expovariate(self.rate_tps / 1000.0),
                               self._emit)

    def _emit(self) -> None:
        if self._stopped:
            return
        self._seq += 1
        rng = self._rng
        if self.cross_fraction > 0.0 and rng.random() < self.cross_fraction:
            shards = rng.sample(range(self.n_shards), 2)
            writes = {rng.choice(self.keys_by_shard[s]): f"v{self._seq}.{j}"
                      for j, s in enumerate(shards)}
            self.txns.begin(writes)
        else:
            shard = rng.randrange(self.n_shards)
            key = rng.choice(self.keys_by_shard[shard])
            self.router.submit_write(key, f"v{self._seq}",
                                     payload_size=self.payload_size)
        self._schedule_next()


@pytest.mark.parametrize("keys", [1, 3, 8, 9])
@pytest.mark.parametrize("shards", [2, 3, 5, 21, 22, 23])
def test_sample_and_choice_are_decoded_draw_for_draw(shards, keys):
    """``random`` against the cross fraction, ``randrange`` of a shard or
    ``sample(range(shards), 2)`` (from a pool up to 21 shards, redrawn
    against a set above), ``choice`` of a key in each, and the gap."""
    for cross in (0.3, 1.0):
        for offset in OFFSETS:
            expected = sharded_stream(shards, cross, 5, keys, 3.0, offset,
                                      StdlibShardedGenerator)
            assert len(expected) > 50
            assert sharded_stream(shards, cross, 5, keys, 3.0, offset) \
                == expected
