"""The pulled arrival stream equals one simulator event per arrival.

``OpenLoopGenerator`` and ``TrafficGenerator`` used to schedule an emit
event and a client-submit event for every request.  They are now
:class:`~repro.client.workload.ArrivalStream` s that the mempool drains
when it is read.  The event-per-arrival bodies are kept here, as they were
written, as the oracle: oracle and stream run on two simulators from one
seed, a reader observes both at the same drawn instants, and at every
observation the two mempools must be indistinguishable — the same
transactions with the same ``created_at`` (by ``==``), the same depth and
the same counters.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.transaction import Transaction
from repro.client.workload import OpenLoopGenerator, QueueSource, _Columns
from repro.sim.loop import Simulator
from repro.workload.generators import ArrivalEngine, TrafficGenerator
from repro.workload.spec import ChurnEvent, FlashCrowd, WorkloadSpec


# ----------------------------------------------------------------------
# The oracle: today's generators as they were, one event per step.  They
# feed a QueueSource no stream is attached to, which is the historical
# queue (nothing to catch up with).
# ----------------------------------------------------------------------
class EventOpenLoopGenerator:
    def __init__(self, sim: Simulator, source: QueueSource, rate_tps: float,
                 payload_size: int = 256, client_one_way_ms: float = 0.05,
                 client_count: int = 16, kv_keys: int = 0) -> None:
        self.sim = sim
        self.source = source
        self.rate_tps = rate_tps
        self.payload_size = payload_size
        self.client_one_way_ms = client_one_way_ms
        self.client_count = client_count
        self.kv_keys = kv_keys
        self._rng = sim.fork_rng("open-loop")
        self._next_id = 0
        self._stopped = False

    def start(self) -> None:
        self._schedule_next()

    def stop(self) -> None:
        self._stopped = True

    def _schedule_next(self) -> None:
        if self._stopped or self.rate_tps <= 0:
            return
        gap_ms = self._rng.expovariate(self.rate_tps / 1000.0)
        self.sim.schedule(gap_ms, self._emit, label="open-loop")

    def _emit(self) -> None:
        if self._stopped:
            return
        self._next_id += 1
        payload = f"SET k{self._next_id % self.kv_keys} v{self._next_id}" \
            if self.kv_keys > 0 else ""
        tx = Transaction(
            client_id=self._next_id % self.client_count,
            tx_id=self._next_id,
            payload=payload,
            payload_size=self.payload_size,
            created_at=self.sim.now,
        )
        self.sim.schedule(self.client_one_way_ms,
                          lambda: self.source.submit(tx),
                          label="client-submit")
        self._schedule_next()


class EventTrafficGenerator:
    def __init__(self, sim: Simulator, source: QueueSource,
                 spec: WorkloadSpec, rng_tag: str = "workload",
                 record: Optional[list] = None) -> None:
        self.sim = sim
        self.source = source
        self.spec = spec
        self.engine = ArrivalEngine(spec, sim.fork_rng(rng_tag))
        self.record = record
        self._submit = source.submit
        self._seq = 0
        self._stopped = False
        self.emitted = 0
        self.accepted = 0

    def start(self) -> None:
        self._schedule_next()

    def stop(self) -> None:
        self._stopped = True

    def _schedule_next(self) -> None:
        if self._stopped:
            return
        gap = self.engine.next_gap_ms(self.sim.now)
        if gap < 0:
            self.sim.schedule_fast(-gap, self._probe)
            return
        self.sim.schedule_fast(gap, self._emit)

    def _probe(self) -> None:
        self._schedule_next()

    def _emit(self) -> None:
        if self._stopped:
            return
        now = self.sim.now
        engine = self.engine
        client = engine.next_client(now)
        rank = engine.next_key_rank(now)
        self._seq += 1
        seq = self._seq
        payload = f"SET k{rank} v{seq}" if rank >= 0 else ""
        tx = Transaction(client, seq, payload, self.spec.payload_size, now)
        self.emitted += 1
        if self.record is not None:
            self.record.append((now, client, rank))
        one_way = self.spec.client_one_way_ms
        if one_way > 0:
            self.sim.schedule_fast(one_way, self._deliver, tx)
        else:
            self._deliver(tx)
        self._schedule_next()

    def _deliver(self, tx: Transaction) -> None:
        if self._submit(tx):
            self.accepted += 1


# ----------------------------------------------------------------------
# The reader: what a leader, a campaign or a client does to a mempool
# ----------------------------------------------------------------------
#: One observation: advance this many ms, then act.  Arrival instants are
#: sums of continuous draws, so an observation never ties with one.
steps = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=40.0),
        st.sampled_from(["take", "take", "take", "pending", "rate", "stop",
                         "reset", "duplicate", "early", "requeue"]),
        st.integers(min_value=1, max_value=120),
    ),
    min_size=4, max_size=30,
)

hops = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=25.0))
capacities = st.one_of(st.none(), st.integers(min_value=1, max_value=150))


class Side:
    """One simulator, its mempool and its generator."""

    def __init__(self, seed: int, capacity, build) -> None:
        self.sim = Simulator(seed=seed)
        self.queue = QueueSource(capacity=capacity)
        self.generator = build(self.sim, self.queue)
        self.generator.start()
        self.taken: list = []

    def act(self, advance_ms: float, action: str, amount: int,
            change_rate) -> tuple:
        """Advance, act, and return everything a reader can see."""
        sim, queue, generator = self.sim, self.queue, self.generator
        sim.run(until=sim.now + advance_ms)
        seen: list = [action]
        if action == "take":
            txs = queue.take(amount, sim.now)
            self.taken = txs or self.taken
            seen.append(txs)
            seen.append([(tx.key, tx.created_at) for tx in txs])
        elif action == "rate":
            change_rate(generator, amount)
        elif action == "stop":
            generator.stop()
        elif action == "reset":
            queue.reset()
        elif action == "duplicate" and self.taken:
            # A retransmission of something already admitted and pulled.
            seen.append(queue.submit(self.taken[0]))
        elif action == "early":
            # Someone else claims a key the open-loop generator is about to
            # use (its ids count up, its clients go round 16): its own
            # arrival must then be refused when it lands.
            queue.pending()
            tx_id = getattr(generator, "_next_id", 0) + amount
            seen.append(queue.submit(Transaction(tx_id % 16, tx_id)))
        elif action == "requeue" and self.taken:
            queue.requeue(self.taken[:amount])
        seen += [queue.pending(), queue.submitted, dict(queue.drops),
                 queue.duplicates_dropped]
        return tuple(seen)


COMPACT_AT = _Columns.COMPACT_AT


def assert_indistinguishable(oracle: Side, stream: Side, script, extra,
                             change_rate=None) -> int:
    """Play ``script`` on both sides; how many ``take`` s compacted the
    stream's queue (moved its cursor back to 0 with work still queued)."""
    compactions = 0
    for index, (advance_ms, action, amount) in enumerate(script):
        expected = oracle.act(advance_ms, action, amount, change_rate)
        head = stream.queue._queue.head
        actual = stream.act(advance_ms, action, amount, change_rate)
        assert actual == expected, f"observation {index} ({action})"
        assert extra(stream.generator) == extra(oracle.generator), \
            f"observation {index} ({action})"
        if action == "take" and stream.queue._queue.head == 0 \
                and actual[-4] and head + len(actual[1]) >= COMPACT_AT:
            compactions += 1
    # Whatever is still on the client hop lands the same way.
    for side in (oracle, stream):
        side.sim.run(until=side.sim.now + 30.0)
    assert stream.queue.take(10_000, 0.0) == oracle.queue.take(10_000, 0.0)
    assert stream.queue.submitted == oracle.queue.submitted
    assert stream.queue.drops == oracle.queue.drops
    return compactions


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       rate=st.floats(min_value=200.0, max_value=20_000.0),
       hop=hops, capacity=capacities, kv_keys=st.sampled_from([0, 7]),
       script=steps)
def test_open_loop_stream_equals_event_per_arrival(
        seed, rate, hop, capacity, kv_keys, script):
    def build(cls):
        return lambda sim, queue: cls(
            sim, queue, rate_tps=rate, payload_size=64,
            client_one_way_ms=hop, kv_keys=kv_keys)

    def change_rate(generator, amount):
        generator.rate_tps = 150.0 * amount

    assert_indistinguishable(
        Side(seed, capacity, build(EventOpenLoopGenerator)),
        Side(seed, capacity, build(OpenLoopGenerator)),
        script, extra=lambda g: (g.rate_tps, g._next_id),
        change_rate=change_rate)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       rate=st.floats(min_value=200.0, max_value=10_000.0),
       hop=hops, capacity=capacities,
       arrival=st.sampled_from(["poisson", "lognormal"]),
       key_space=st.sampled_from([0, 32]),
       outage=st.booleans(), script=steps)
def test_traffic_stream_equals_event_per_arrival(
        seed, rate, hop, capacity, arrival, key_space, outage, script):
    # A flash crowd, a churn step down and back, and (optionally) a window
    # where the rate is ~0, which the engine answers with idle probes.
    crowds = [FlashCrowd(40.0, 60.0, 3.0)]
    if outage:
        crowds.append(FlashCrowd(120.0, 130.0, 1e-14))
    spec = WorkloadSpec(
        base_rate_tps=rate, arrival=arrival, clients=1000,
        churn=(ChurnEvent(80.0, 300), ChurnEvent(200.0, 1000)),
        flash_crowds=tuple(crowds), key_space=key_space,
        client_one_way_ms=hop)

    def build(cls):
        return lambda sim, queue: cls(sim, queue, spec, rng_tag="soak",
                                      record=[])

    def extra(generator):
        engine = generator.engine
        return (generator.emitted, generator.accepted, engine.flash_arrivals,
                engine.churn_transitions, list(generator.record))

    assert_indistinguishable(
        Side(seed, capacity, build(EventTrafficGenerator)),
        Side(seed, capacity, build(TrafficGenerator)),
        script, extra=extra, change_rate=lambda generator, amount: None)


# ----------------------------------------------------------------------
# Shapes the random scripts above cannot reach: the mempool is columns
# read behind a take cursor that compacts past COMPACT_AT, and
# a landed batch is admitted whole unless it overlaps the dedup set,
# repeats a key or crosses capacity.
# ----------------------------------------------------------------------
def open_loop(rate: float):
    return lambda cls: lambda sim, queue: cls(
        sim, queue, rate_tps=rate, payload_size=64, client_one_way_ms=0.05)


def traffic(rate: float):
    spec = WorkloadSpec(base_rate_tps=rate, arrival="lognormal", clients=1000,
                        churn=(ChurnEvent(30.0, 300),),
                        flash_crowds=(FlashCrowd(20.0, 40.0, 3.0),),
                        key_space=32, client_one_way_ms=0.05)
    return lambda cls: lambda sim, queue: cls(sim, queue, spec,
                                              rng_tag="soak", record=[])


def open_loop_extra(generator):
    return (generator.rate_tps, generator._next_id)


def traffic_extra(generator):
    engine = generator.engine
    return (generator.emitted, generator.accepted, engine.flash_arrivals,
            engine.churn_transitions, list(generator.record))


GENERATORS = {
    "open-loop": (open_loop, EventOpenLoopGenerator, OpenLoopGenerator,
                  open_loop_extra),
    "traffic": (traffic, EventTrafficGenerator, TrafficGenerator,
                traffic_extra),
}

#: ~2 400 arrivals land in one batch, then takes of 100 walk the cursor
#: past COMPACT_AT while ~1 000 stay queued; a requeue and more takes
#: follow the compaction, then a second backlog builds and drains.
DEEP_BACKLOG = ([(80.0, "take", 100)] + [(0.01, "take", 100)] * 13
                + [(0.01, "requeue", 60), (0.01, "take", 70),
                   (0.01, "requeue", 70), (0.01, "pending", 1)]
                + [(0.01, "take", 100)] * 4
                + [(60.0, "take", 120)] + [(0.01, "take", 120)] * 10
                + [(0.01, "requeue", 120), (0.01, "take", 5000)])


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_take_cursor_compaction_equals_event_per_arrival(kind, seed):
    shape, oracle, stream, extra = GENERATORS[kind]
    build = shape(30_000.0)
    compactions = assert_indistinguishable(
        Side(seed, None, build(oracle)), Side(seed, None, build(stream)),
        DEEP_BACKLOG, extra=extra)
    assert compactions >= 1


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("capacity", [1, 700, 1500])
def test_one_landed_batch_straddling_capacity(kind, capacity):
    # ~1 500 arrivals land at once into a queue with room for part of
    # them: admission falls back to one by one and drops the tail.
    shape, oracle, stream, extra = GENERATORS[kind]
    build = shape(30_000.0)
    script = [(10.0, "take", 200), (50.0, "pending", 1), (0.01, "take", 900),
              (30.0, "take", 50), (0.01, "reset", 1), (40.0, "take", 5000)]
    side = Side(4, capacity, build(stream))
    assert_indistinguishable(Side(4, capacity, build(oracle)), side, script,
                             extra=extra)
    assert side.queue.dropped("overflow") > 0


@pytest.mark.parametrize("capacity", [None, 400])
def test_a_landed_batch_holding_an_already_seen_key(capacity):
    # "early" claims a key the open-loop generator is about to use; the
    # batch that later lands with it must refuse exactly that arrival.
    build = open_loop(20_000.0)
    script = [(1.0, "take", 10), (0.01, "early", 30), (0.01, "early", 200),
              (30.0, "pending", 1), (0.01, "take", 300),
              (0.01, "duplicate", 1), (0.01, "early", 5), (20.0, "take", 50),
              (0.01, "early", 1), (0.5, "take", 5000)]
    side = Side(5, capacity, build(OpenLoopGenerator))
    assert_indistinguishable(Side(5, capacity, build(EventOpenLoopGenerator)),
                             side, script, extra=open_loop_extra)
    # Four claimed keys land and are refused, and one retransmission.
    assert side.queue.duplicates_dropped == 5
