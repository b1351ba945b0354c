"""A host-call budget per committed transaction and per simulator event.

The simulator's cost rule (docs/PERFORMANCE.md, "Per-block paths") is that
work done once per block makes no Python-level call per transaction,
("Arrivals are data") that an open-loop arrival is not a simulator event,
("Per-event paths") that popping an event, sending a message and
delivering one are short fixed call chains, and ("Per-transaction paths")
that a transaction's arrival, draw, apply and audit are too.  The
performance ledger would show a breach as a worse ``host_mcalls`` row;
this test shows it as a failing tier-1 test.  Call counts are a property of
the code, not of the machine: the same run makes the same calls everywhere.
"""

from __future__ import annotations

import cProfile
import dataclasses
import statistics
from dataclasses import dataclass

import pytest

from repro.chain.block import create_leaf, genesis_block
from repro.chain.execution import KVStateMachine
from repro.chain.store import BlockStore
from repro.chain.transaction import Transaction
from repro.client.workload import OpenLoopGenerator, QueueSource
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
from repro.sim.loop import Simulator
from repro.workload.generators import TrafficGenerator
from repro.workload.spec import ChurnEvent, FlashCrowd, WorkloadSpec

resolve_protocol("achilles")  # fills the registry

#: Calls per committed transaction measured when this budget was set
#: (263 339 calls for 35 600 transactions; 8.43 before the per-event
#: cuts).  One new call per transaction anywhere on the path adds 1.0 and
#: breaks the 10 % allowance.
CALLS_PER_TX = 7.40

CONFIG = dict(protocol="achilles", f=2, network="LAN", batch_size=400,
              duration_ms=300.0, warmup_ms=0.0, seed=1)


#: The same cluster fed 20 000 requests/s open loop (368 498 calls for
#: 6 017 transactions; blocks are small, so per-block work dominates).  An
#: emit event and a client-submit event per arrival add ~26; the
#: per-transaction paths this budget was last lowered for read 66.39, the
#: per-event chains before them 84.87.  Its allowance is 5 %, not 10 %:
#: at ~61 calls a transaction, 10 % would forgive six new calls on it.
OPEN_LOOP_CALLS_PER_TX = 61.25
OPEN_LOOP_ALLOWANCE = 1.05

#: Calls per simulator event, per protocol, at f=2 LAN saturated with
#: blocks of 10 (so an event's fixed cost is not drowned by its block's):
#: ``name: (budget, what the tree before the per-event cuts read)``.  One
#: more call on the pop, send or deliver chain adds 1.0-2.0.  Last lowered
#: with the per-view paths (achilles read 37.80 before them); part of
#: that drop is the view timer's early fires, events that cost few calls.
CALLS_PER_EVENT = {
    "achilles": (28.79, 57.42),
    "achilles-c": (28.75, 57.40),
    "braft": (28.15, 43.72),
    "damysus": (39.26, 64.26),
    "damysus-r": (40.68, 64.93),
    "flexibft": (20.78, 43.60),
    "minbft": (33.50, 58.94),
    "minbft-r": (39.48, 65.72),
    "oneshot": (38.37, 66.73),
    "oneshot-r": (40.07, 65.62),
}

#: Calls from ``Network.send`` to the end of the receiver's unit of work,
#: for one message on an idle LAN: the send loop (its physics in line),
#: two simulator events (arrival, dispatch behind the CPU), a no-op
#: handler and the flush, plus the ``run`` that drives them.  Reads 23;
#: 30 before the physics moved into the loop, 48 before the per-event cuts.
DELIVERY_CALLS = 23


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
    """Host calls made by ``fn()``, not counting ``fn`` itself."""
    def count(target) -> int:
        profile = cProfile.Profile()
        profile.enable()
        target()
        profile.disable()
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
#: it: the constructor, ``expovariate`` (``random``, ``log``) and the
#: in-flight append; landing, admission and ``take`` are per batch.  Was 9.
OPEN_LOOP_ARRIVAL_CALLS = 5

#: One ``TrafficGenerator`` arrival of a soak-shaped spec (lognormal gaps,
#: Zipf keys, diurnal curve, a flash crowd, churn), emission to ``take``:
#: its RNG draws through the stdlib, one ``sin``, one ``log``, the
#: constructor and the append — no spec lookup.  Reads 20.7; was 35.4.
TRAFFIC_ARRIVAL_CALLS = 22

#: One ``SET`` of an already-written key in ``apply_batch``: the split,
#: the value's ``encode`` and ``len``, ``sha256``, ``hexdigest`` and the
#: history's ``encode``.  Was 10.
SET_WRITE_CALLS = 6

#: ``QueueSource.submit`` of one fresh transaction with no stream
#: attached: ``submit``, ``_admit_each``, ``set.add``, ``list.append``.
#: Was 5.
SUBMIT_CALLS = 4


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


def test_a_set_write_is_a_bounded_number_of_calls():
    machine = KVStateMachine()
    machine.apply_batch([Transaction(1, i, f"SET k{i} v{i}")
                         for i in range(64)])
    txs = [Transaction(2, i, f"SET k{i % 64} v{i}") for i in range(4000)]
    # The root over 64 keys at the end is a handful of calls per batch.
    assert per_item(lambda: machine.apply_batch(txs) and txs, len) \
        <= SET_WRITE_CALLS + 0.01


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


def test_submitting_one_transaction_is_not_dearer():
    queue = QueueSource()
    tx = Transaction(0, 1)
    assert calls_of(lambda: queue.submit(tx)) <= SUBMIT_CALLS
    assert queue.pending() == 1


class Memo:
    @cached_property
    def value(self):
        return 42


def test_a_cached_property_costs_two_calls_once_and_none_after():
    memo = Memo()
    assert calls_of(lambda: memo.value) == 2     # __get__ and the function
    assert calls_of(lambda: memo.value) == 0
    assert memo.value == 42 and isinstance(Memo.value, cached_property)
