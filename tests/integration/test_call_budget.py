"""A host-call budget per committed transaction and per simulator event.

The simulator's cost rule (docs/PERFORMANCE.md, "Per-block paths") is that
work done once per block makes no Python-level call per transaction,
("Arrivals are data") that an open-loop arrival is not a simulator event,
("Per-event paths") that popping an event, sending a message and
delivering one are short fixed call chains, and ("Per-transaction paths")
that a transaction's arrival, draw, execution, apply and audit are too.  The
performance ledger would show a breach as a worse ``host_mcalls`` row;
this test shows it as a failing tier-1 test.  Call counts are a property of
the code, not of the machine: the same run makes the same calls everywhere.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import statistics
from dataclasses import dataclass

import pytest

from repro.chain.block import create_leaf, genesis_block
from repro.chain.execution import KVStateMachine, execute_transactions
from repro.chain.store import BlockStore
from repro.chain.transaction import Transaction, TxBatch
from repro.client.workload import (OpenLoopGenerator, QueueSource,
                                   SaturatedSource, ShardedOpenLoopGenerator)
from repro.consensus.cluster import build_cluster
from repro.consensus.config import ProtocolConfig
from repro.core.node import AchillesNode, Decide
from repro.crypto.hashing import cached_property
from repro.crypto.keys import Keyring, generate_keypairs
from repro.crypto.signatures import sign, verify
from repro.harness.invariants import InvariantMonitor
from repro.harness.metrics import MetricsCollector
from repro.harness.runner import (
    PROTOCOLS,
    build_deployment,
    protocol_config,
    resolve_protocol,
    run_experiment,
)
from repro.net.latency import LAN_PROFILE
from repro.shard.ranges import ShardMap
from repro.sim.loop import Simulator
from repro.workload.generators import TrafficGenerator
from repro.workload.spec import ChurnEvent, FlashCrowd, WorkloadSpec

resolve_protocol("achilles")  # fills the registry

#: Calls per committed transaction measured when this budget was set
#: (74 426 calls for 35 600 transactions; 3.09 while each transaction of
#: a saturated batch was a ``Transaction.__init__`` call and each
#: proposal encoded its batch twice, 3.19 while each delay was a
#: ``gauss`` call, 6.18 while execution results hashed once per
#: transaction, 8.43 before the per-event cuts).  One new call per
#: transaction anywhere on the path adds 1.0 and breaks the 10 %
#: allowance.
CALLS_PER_TX = 2.09

CONFIG = dict(protocol="achilles", f=2, network="LAN", batch_size=400,
              duration_ms=300.0, warmup_ms=0.0, seed=1)


#: The same cluster fed 20 000 requests/s open loop (208 041 calls for
#: 6 017 transactions; blocks are small, so per-block work dominates).  An
#: emit event and a client-submit event per arrival add ~26; a
#: ``Transaction.__init__`` and an append per arrival read 36.39,
#: per-draw ``gauss`` and ``expovariate`` calls 40.95, execution results
#: hashed per transaction 43.84, the per-transaction paths 66.39, the
#: per-event chains 84.87.  Its allowance is 5 %, not 10 %: at ~35 calls
#: a transaction, 10 % would forgive three new calls on it.
OPEN_LOOP_CALLS_PER_TX = 34.58
OPEN_LOOP_ALLOWANCE = 1.05

#: Calls per simulator event, per protocol, at f=2 LAN saturated with
#: blocks of 10 (so an event's fixed cost is not drowned by its block's):
#: ``name: (budget, what the tree before the per-event cuts read)``.  One
#: more call on the pop, send or deliver chain adds 1.0-2.0.  Last lowered
#: with the sealed-update cuts (one-pass canonical encoding, the seal MAC
#: as one C call, a passive journal that returns at once, in-line phase
#: vote digests and class-level envelope sizes; before them damysus
#: 37.39, damysus-r 38.61, flexibft 18.74, minbft 31.41, minbft-r 37.23,
#: oneshot 36.30, oneshot-r 37.96), before that when delays were read
#: from blocks of normals (each a ``gauss`` call before: achilles 28.28,
#: braft 27.07, minbft 33.15, the budgets then 27.93, 26.93 and 32.91),
#: before that with per-batch execution results (achilles read 28.79
#: before them, and 37.80 before the per-view paths).
CALLS_PER_EVENT = {
    "achilles": (26.73, 57.42),
    "achilles-c": (26.68, 57.40),
    "braft": (25.61, 43.72),
    "damysus": (29.88, 64.26),
    "damysus-r": (31.68, 64.93),
    "flexibft": (18.51, 43.60),
    "minbft": (28.47, 58.94),
    "minbft-r": (33.79, 65.72),
    "oneshot": (31.29, 66.73),
    "oneshot-r": (32.52, 65.62),
}

#: Calls from ``Network.send`` to the end of the receiver's unit of work,
#: for one message on an idle LAN: the send loop (its physics in line),
#: two simulator events (arrival, dispatch behind the CPU), a no-op
#: handler and the flush, plus the ``run`` that drives them.  Reads 22;
#: 23 while the delay was a ``gauss`` call (29 when it drew a new pair),
#: 30 before the physics moved into the loop, 48 before the per-event cuts.
DELIVERY_CALLS = 22


def profiled(config: dict):
    """Total host calls of one run of ``config``, and its result."""
    # Lazy imports and first-use caches are not part of the steady state.
    run_experiment(**{**config, "duration_ms": 30.0})
    profile = cProfile.Profile()
    profile.enable()
    result = run_experiment(**config)
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats()), result


def calls_per_committed_tx(config: dict) -> "tuple[float, int]":
    calls, result = profiled(config)
    return calls / result.txs_committed, result.txs_committed


def test_calls_per_committed_transaction_stay_in_budget():
    per_tx, committed = calls_per_committed_tx(CONFIG)
    assert committed == 35_600
    assert per_tx <= 1.1 * CALLS_PER_TX, (
        f"{per_tx:.2f} host calls per committed transaction "
        f"(budget {1.1 * CALLS_PER_TX:.2f}): a per-item call crept into a "
        f"per-block path")


def test_open_loop_calls_per_committed_transaction_stay_in_budget():
    per_tx, committed = calls_per_committed_tx(
        {**CONFIG, "offered_load_tps": 20_000.0})
    assert committed == 6_017
    budget = OPEN_LOOP_ALLOWANCE * OPEN_LOOP_CALLS_PER_TX
    assert per_tx <= budget, (
        f"{per_tx:.2f} host calls per committed transaction "
        f"(budget {budget:.2f}): open-loop arrivals cost an event or a call "
        f"chain each again")


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_calls_per_event_stay_in_budget(protocol):
    assert protocol in CALLS_PER_EVENT, (
        f"measure {protocol}'s calls per event and add it to CALLS_PER_EVENT")
    budget, _before = CALLS_PER_EVENT[protocol]
    calls, result = profiled({**CONFIG, "protocol": protocol,
                              "batch_size": 10, "duration_ms": 200.0})
    per_event = calls / result.sim_events
    assert per_event <= 1.1 * budget, (
        f"{per_event:.2f} host calls per simulator event "
        f"(budget {1.1 * budget:.2f}): the pop, send or deliver chain grew")


def calls_of(fn) -> int:
    """Host calls made by ``fn()``, not counting ``fn`` itself.

    The collector runs before each count and is off during it: a cycle
    left by an earlier test would otherwise be collected mid-count, and
    its finalizers' calls charged to ``fn``."""
    def count(target) -> int:
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            profile = cProfile.Profile()
            profile.enable()
            target()
            profile.disable()
        finally:
            if enabled:
                gc.enable()
        return sum(entry.callcount for entry in profile.getstats())
    return count(fn) - count(lambda: None)


@dataclass(frozen=True)
class Ping:
    tag: str


class Probe(AchillesNode):
    def on_Ping(self, msg: Ping, src: int) -> None:
        pass


def test_one_delivery_is_a_bounded_number_of_calls():
    cluster = build_cluster(Probe, ProtocolConfig.tee_committee(f=1, seed=1),
                            LAN_PROFILE, seed=1)
    ping = Ping("x")

    def deliver_one() -> None:
        cluster.network.send(1, 0, ping)
        cluster.sim.run(until=cluster.sim.now + 5.0)

    deliver_one()   # first use: handler cache, size memo, NIC entry
    assert calls_of(deliver_one) <= DELIVERY_CALLS


# ----------------------------------------------------------------------
# Per-view paths (docs/PERFORMANCE.md): what one backup does in every
# view of the normal case (Algorithm 1, lines 18-36) is a constant number
# of calls.
# ----------------------------------------------------------------------
#: One backup's dispatch of the leader's ``Proposal``: admission, the
#: TEEstore ECALL that signs its vote, the vote's send.  Was 70: the
#: ancestry check called a lambda through ``run_work``, the ECALL made
#: five calls to gate and charge, the vote's digest went through
#: ``statement()`` and ``digest_of``, its tag through ``hmac.digest``.
PROPOSAL_DISPATCH_CALLS = 49

#: One backup's dispatch of a ``Decide`` it does not lead the next view
#: after: the certificate check, the commit and entering the next view.
#: One more on ``lan_sat_n101``, whose ledger listener adds a call.  Was
#: 56: entering the view cancelled and re-queued the view timer (13
#: calls), the commit made three passive journal calls.
DECIDE_DISPATCH_CALLS = 34

#: The backup whose dispatches are counted.
PROBED = 1


class ViewProbe(AchillesNode):
    """An Achilles replica that counts the calls of the probed backup's
    ``Proposal`` and ``Decide`` dispatches into ``calls``."""

    calls: "dict[str, list[int]]" = {}

    def _dispatch(self, envelope, arrival, epoch) -> None:
        payload = envelope.payload
        counted = self.calls.get(payload.__class__.__name__)
        if self.node_id != PROBED or counted is None or (
                isinstance(payload, Decide)
                and self.leader_of(payload.qc.view + 1) == PROBED):
            AchillesNode._dispatch(self, envelope, arrival, epoch)
            return
        counted.append(calls_of(lambda: AchillesNode._dispatch(
            self, envelope, arrival, epoch)))


def per_view_dispatch_calls() -> "dict[str, float]":
    """The median calls of each counted dispatch over 200 ms of f=2 LAN
    saturated, first five (cold caches) left out."""
    ViewProbe.calls = {"Proposal": [], "Decide": []}
    spec = dataclasses.replace(resolve_protocol("achilles"),
                               node_cls=ViewProbe)
    config = protocol_config(spec, 2, 1, counter_write_ms=0.0,
                             batch_size=400)
    build_deployment(spec, config, LAN_PROFILE, 1, listener=MetricsCollector(
        warmup_ms=0.0, reply_one_way_ms=LAN_PROFILE.one_way_ms)).run(200.0)
    counted = ViewProbe.calls
    assert all(len(calls) >= 30 for calls in counted.values()), counted
    return {kind: statistics.median(calls[5:])
            for kind, calls in counted.items()}


def test_a_backups_view_is_a_bounded_number_of_calls():
    medians = per_view_dispatch_calls()
    assert medians["Proposal"] <= PROPOSAL_DISPATCH_CALLS, medians
    assert medians["Decide"] <= DECIDE_DISPATCH_CALLS, medians


def test_committing_on_the_tip_is_one_walk():
    """A commit proves its ancestry and collects its path in one parent
    walk, which stops at the committed tip: the same calls at any height."""
    def commit_calls(height: int) -> int:
        store = BlockStore()
        parent = store.genesis
        for view in range(1, height + 1):
            parent = create_leaf((), "op", parent, view, 0)
            store.add(parent)
            store.commit(parent)
        block = create_leaf((), "op", parent, height + 1, 0)
        block.hash
        store.add(block)
        calls = calls_of(lambda: store.commit(block))
        assert store.committed_tip is block
        return calls

    assert commit_calls(10) == commit_calls(1_000)


#: One ``protect_state_update`` of a Damysus-R checker, its own call
#: included: the payload, the seal (one ``_canonical`` call per nesting
#: level, ``sha256``, the HMAC as one C call, the blob, the store and a
#: passive journal that returns at once) and the counter write with its
#: charge in line.  Was 60: the encoding streamed one ``emit`` per token
#: through ``_encode_into``, the tag went through the stdlib ``hmac``
#: object, the passive journal made three calls, the charges two.
PROTECTED_UPDATE_CALLS = 28


def test_a_protected_state_update_is_a_bounded_number_of_calls():
    from repro.baselines.damysus.checker import DamysusChecker
    from repro.tee.counters import ConfigurableCounter

    pairs = generate_keypairs(range(3), seed=1)
    checker = DamysusChecker(
        node_id=0, n=3, f=1, private_key=pairs[0].private,
        keyring=Keyring.from_keypairs(pairs),
        counter=ConfigurableCounter(20.0))
    checker.protect_state_update()       # first use
    calls = calls_of(lambda: checker.protect_state_update())
    assert calls <= PROTECTED_UPDATE_CALLS
    assert checker.counter_writes == 2


def test_a_memoised_signature_verdict_costs_one_call():
    pairs = generate_keypairs(range(3), seed=1)
    keyring = Keyring.from_keypairs(pairs)
    signature = sign(pairs[1].private, "statement")
    digest = signature.digest
    assert verify(keyring, signature, digest=digest)        # fills the memo
    assert calls_of(lambda: verify(keyring, signature, digest=digest)) == 1


# ----------------------------------------------------------------------
# Per-transaction paths (docs/PERFORMANCE.md): each stage of a
# transaction's life is a constant number of calls.  Every budget below
# reads over its limit on the tree before these paths were cut (the
# number after "was").
# ----------------------------------------------------------------------
#: One open-loop arrival from its emission to the ``take`` that returns
#: it: its share of one block emission (the due arrivals of a block of
#: gaps minted as one batch), of one ``exponential_block`` refill per
#: block of gaps, and of landing, admission and ``take``, all per batch.
#: Reads 0.029.  Was 2 while each arrival was a ``Transaction.__init__``
#: and an append, 5 while each gap was an ``expovariate`` call (with its
#: ``random`` and ``log``), 9 before that.
OPEN_LOOP_ARRIVAL_CALLS = 0.03

#: One ``TrafficGenerator`` arrival of a soak-shaped spec (lognormal gaps,
#: Zipf keys, diurnal curve, a flash crowd, churn), emission to ``take``:
#: one ``sin``, the ``log`` of its mean and of each Kinderman-Monahan
#: try, one ``exp`` and its row's append; its draws are decoded from
#: block-read words, and ranks, payloads and rows are made once per
#: catch-up — no spec lookup.  Reads 5.47; was 19 (reading 17.68) while
#: each draw was a stdlib call, 22 while each arrival was a
#: ``Transaction.__init__``, 35.4 before that.
TRAFFIC_ARRIVAL_CALLS = 6

#: One ``ShardedOpenLoopGenerator`` arrival, an event: its pop, ``_emit``
#: (draws decoded from block-read words), the router's or 2PC manager's
#: call, and the next gap's ``_schedule_next``, ``log``,
#: ``schedule_fast``, ``push_fast`` and ``heappush``; a block refill adds
#: about 0.1.  Reads 8.10 with every arrival cross-shard; was 41.3 (23.0
#: with none) while each draw was a stdlib call.
SHARDED_ARRIVAL_CALLS = 8.2

#: One ``SET`` of an already-written key in ``apply_batch``: ``sha256``,
#: ``hexdigest`` and the history's ``encode``; the split and the value's
#: ``encode`` and ``len`` are C maps over the batch.  Was 6, 10 before.
SET_WRITE_CALLS = 3

#: ``execute_transactions`` over a batch: the batch is encoded in one
#: pass (payload encodes and lengths by ``map``) and hashed once, and the
#: outer digest is encoded in line, so the count does not grow with the
#: batch.  Reads 14 for empty payloads, 15 for 400 ``SET`` s (the pass
#: also sums their wire size); 13 alike before ``tx_list_digest`` became
#: ``tx_list_encoding``'s digest, 813 for the ``SET`` s (an encode and a
#: len each), 1 210 for 400 empty payloads before that, three calls each.
EXECUTE_BATCH_CALLS = 16

#: ``SaturatedSource.take`` of a full batch: one ``TxBatch`` of a
#: ``range`` of ids, a byte array of clients and one shared payload,
#: size, time and wire size, so ``take(400)`` costs what ``take(1)``
#: does: ``take``, ``max``, ``TxBatch.__init__`` and its ``len``.  Reads
#: 4; was 11 while ``mint_batch`` made the objects column by column, 403
#: for ``take(400)`` against 4 for ``take(1)`` while each transaction was
#: a ``Transaction.__init__``.
SATURATED_TAKE_CALLS = 4

#: ``QueueSource.submit`` of one fresh transaction with no stream
#: attached: ``submit``, ``_admit_one``, ``TxKeySet.add``, ``list.append``
#: (the row is buffered and folded into the queue's columns at the next
#: take).  Was 5.
SUBMIT_CALLS = 4

#: ``QueueSource.take`` from a queue of columns: ``take``, the columns'
#: ``batch``, ``TxBatch.__init__`` and its ``len``, and ``cut`` when the
#: take drains the queue or compacts it; the take slices the columns, so
#: ``take(400)`` costs what ``take(3)`` does.  Reads 4; was 12 while the
#: queue held ``Transaction`` objects and each take converted its slice
#: (``TxBatch.of``).
QUEUE_TAKE_CALLS = 5


def per_item(step, items) -> float:
    """Calls of one ``step()`` per item it returns (``items(result)``)."""
    results = []
    calls = calls_of(lambda: results.append(step()))
    return (calls - 1) / items(results[0])


def test_an_open_loop_arrival_is_a_bounded_number_of_calls():
    sim = Simulator(seed=1)
    queue = QueueSource()
    OpenLoopGenerator(sim, queue, rate_tps=1_000_000.0).start()

    def step():
        sim.run(until=sim.now + 20.0)
        return queue.take(1 << 30, sim.now)

    step()
    # ~20 000 arrivals per step: the per-read calls are under 0.01 each.
    assert per_item(step, len) <= OPEN_LOOP_ARRIVAL_CALLS + 0.01


def test_a_traffic_arrival_asks_the_spec_nothing():
    sim = Simulator(seed=1)
    queue = QueueSource()
    spec = WorkloadSpec(
        base_rate_tps=1_000_000.0, arrival="lognormal", lognormal_sigma=1.0,
        clients=50_000, churn=(ChurnEvent(5.0, 20_000),
                               ChurnEvent(30.0, 50_000)),
        diurnal_amplitude=0.1, diurnal_period_ms=20_000.0,
        flash_crowds=(FlashCrowd(10.0, 10.0, 8.0),), key_space=512)
    TrafficGenerator(sim, queue, spec).start()
    per_arrival = per_item(
        lambda: sim.run(until=40.0) or queue.take(1 << 30, sim.now), len)
    assert per_arrival <= TRAFFIC_ARRIVAL_CALLS


class ShardSink:
    """A router and a 2PC manager that take a call and do nothing."""

    shard_map = ShardMap.uniform(4)

    def submit_write(self, key, value, payload_size=0) -> None:
        pass

    def begin(self, writes) -> None:
        pass


@pytest.mark.parametrize("cross", [0.0, 1.0])
def test_a_sharded_arrival_is_a_bounded_number_of_calls(cross):
    sim, sink = Simulator(seed=1), ShardSink()
    ShardedOpenLoopGenerator(sim, sink, sink, rate_tps=100_000.0,
                             cross_fraction=cross).start()
    sim.run(until=5.0)
    before = sim.events_processed
    calls = calls_of(lambda: sim.run(until=sim.now + 50.0))
    # ~20 000 arrivals, every event one of them.
    assert calls / (sim.events_processed - before) <= SHARDED_ARRIVAL_CALLS


def test_a_set_write_is_a_bounded_number_of_calls():
    machine = KVStateMachine()
    machine.apply_batch([Transaction(1, i, f"SET k{i} v{i}")
                         for i in range(64)])
    txs = [Transaction(2, i, f"SET k{i % 64} v{i}") for i in range(4000)]
    # A batch's own calls (its ``TxBatch.of``, the maps) are a handful;
    # ``apply_batch`` returns nothing, so the items are counted from
    # ``txs``.
    assert per_item(lambda: machine.apply_batch(txs), lambda _: len(txs)) \
        <= SET_WRITE_CALLS + 0.01


def test_a_saturated_batch_costs_what_one_transaction_does():
    source = SaturatedSource(Simulator(seed=1))
    source.take(400, 5.0)                # first use
    batch = calls_of(lambda: source.take(400, 5.0))
    assert batch <= calls_of(lambda: source.take(1, 5.0))
    assert batch <= SATURATED_TAKE_CALLS


def test_a_proposal_encodes_its_batch_once():
    """The leader encodes its batch once for ``op`` and seeds the block's
    ``batch_digest`` with it, so its hash does not encode it again, and
    every backup checks the results over that same memo."""
    run_experiment(**{**CONFIG, "duration_ms": 30.0})
    profile = cProfile.Profile()
    profile.enable()
    run_experiment(**{**CONFIG, "duration_ms": 100.0})
    profile.disable()
    counts = {"_build_block": 0, "tx_list_encoding": 0}
    for entry in profile.getstats():
        name = getattr(entry.code, "co_name", None)
        if name in counts:
            counts[name] += entry.callcount
    assert counts["_build_block"] > 10
    # ``tx_list_digest`` encodes through ``tx_list_encoding`` too, so an
    # unseeded ``batch_digest`` would count here.
    assert counts["tx_list_encoding"] == counts["_build_block"]


def test_execution_results_are_one_digest_per_batch():
    def execute_calls(txs) -> int:
        return calls_of(lambda: execute_transactions(txs, "p" * 64))

    empty = TxBatch.of([Transaction(1, i) for i in range(400)])
    assert execute_calls(empty) <= execute_calls(empty[:1])
    assert execute_calls(empty) <= EXECUTE_BATCH_CALLS
    # A payload's encode and len are C maps over the batch too.
    writes = TxBatch.of([Transaction(1, i, f"SET k{i} v{i}")
                         for i in range(400)])
    assert execute_calls(writes) <= EXECUTE_BATCH_CALLS


def test_the_exactly_once_audit_is_one_set_test_per_block():
    def audit_calls(count: int) -> int:
        monitor = InvariantMonitor()
        first = create_leaf(tuple(Transaction(3, i) for i in range(5)),
                            "op", genesis_block(), 1, 0)
        block = create_leaf(tuple(Transaction(4, i) for i in range(count)),
                            "op", first, 1, 0)
        block.hash  # hashed where it was made, not by the audit
        monitor.on_commit(0, first, 0.0)
        calls = calls_of(lambda: monitor.on_commit(0, block, 1.0))
        assert monitor.ok
        return calls

    assert audit_calls(10) == audit_calls(1000)


def test_a_mempool_take_costs_the_same_for_3_and_for_400():
    def take_calls(count: int) -> int:
        queue = QueueSource()
        batch = TxBatch.of([Transaction(i % 16, i, "SET k v", 8, 0.5)
                            for i in range(1, 2001)])
        queue._admit(batch.n, *batch.columns())
        queue.take(1, 0.0)                  # the cursor off the head
        return calls_of(lambda: queue.take(count, 0.0))

    assert take_calls(400) == take_calls(3) <= QUEUE_TAKE_CALLS


def test_submitting_one_transaction_is_not_dearer():
    queue = QueueSource()
    tx = Transaction(0, 1)
    assert calls_of(lambda: queue.submit(tx)) <= SUBMIT_CALLS
    assert queue.pending() == 1


#: The shapes a batch of fresh keys comes in: a run of one global counter
#: (the generators), a run with gaps (a bounded mempool dropped some), and
#: one client's own counter (a router).
BATCH_SHAPES = {
    "global run": lambda start, n: [(i % 16, i)
                                    for i in range(start, start + n)],
    "gapped run": lambda start, n: [(i % 64, i)
                                    for i in range(start, start + 3 * n, 3)],
    "one client": lambda start, n: [(50_000, i)
                                    for i in range(start, start + n)],
}


@pytest.mark.parametrize("shape", sorted(BATCH_SHAPES))
def test_marking_a_batch_makes_no_call_per_transaction(shape):
    """Landing a batch in the mempool (``_admit``) and taking a block's
    first replies (``on_replies``) cost the same calls for 1 000
    transactions as for 100, in every shape of fresh keys; one call more
    is let through for the first batch that reaches a new id range."""
    keys = BATCH_SHAPES[shape]

    def batch(start, n, view):
        """The batch as it lands, and the block that commits it."""
        txs = [Transaction(c, i, created_at=0.0) for c, i in keys(start, n)]
        block = create_leaf(txs, "op", genesis_block(), view, 0)
        block.hash  # hashed where it was made, not by the collector
        return txs, block

    queue, collector = QueueSource(), MetricsCollector()
    (first, one), (small, two), (large, three) = \
        batch(1, 10, 1), batch(100, 100, 2), batch(1000, 1000, 3)
    first, small, large = map(TxBatch.of, (first, small, large))
    queue._admit(first.n, *first.columns())
    collector.on_replies(0, one, 1.0)
    small_admit = calls_of(lambda: queue._admit(small.n, *small.columns()))
    small_reply = calls_of(lambda: collector.on_replies(0, two, 2.0))
    large_admit = calls_of(lambda: queue._admit(large.n, *large.columns()))
    large_reply = calls_of(lambda: collector.on_replies(0, three, 3.0))
    assert large_admit <= small_admit + 1
    assert large_reply <= small_reply + 1
    assert queue.pending() == 1110
    assert collector.e2e_latency.count == 1110


class Memo:
    @cached_property
    def value(self):
        return 42


def test_a_cached_property_costs_two_calls_once_and_none_after():
    memo = Memo()
    assert calls_of(lambda: memo.value) == 2     # __get__ and the function
    assert calls_of(lambda: memo.value) == 0
    assert memo.value == 42 and isinstance(Memo.value, cached_property)
