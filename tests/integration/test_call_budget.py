"""A host-call budget per committed transaction and per simulator event.

The simulator's cost rule (docs/PERFORMANCE.md, "Per-block paths") is that
work done once per block makes no Python-level call per transaction,
("Arrivals are data") that an open-loop arrival is not a simulator event,
and ("Per-event paths") that popping an event, sending a message and
delivering one are short fixed call chains.  The performance ledger would show a breach as a worse ``host_mcalls`` row;
this test shows it as a failing tier-1 test.  Call counts are a property of
the code, not of the machine: the same run makes the same calls everywhere.
"""

from __future__ import annotations

import cProfile
from dataclasses import dataclass

import pytest

from repro.consensus.cluster import build_cluster
from repro.consensus.config import ProtocolConfig
from repro.core.node import AchillesNode
from repro.crypto.keys import Keyring, generate_keypairs
from repro.crypto.signatures import sign, verify
from repro.harness.runner import PROTOCOLS, resolve_protocol, run_experiment
from repro.net.latency import LAN_PROFILE

resolve_protocol("achilles")  # fills the registry

#: Calls per committed transaction measured when this budget was set
#: (263 339 calls for 35 600 transactions; 8.43 before the per-event
#: cuts).  One new call per transaction anywhere on the path adds 1.0 and
#: breaks the 10 % allowance.
CALLS_PER_TX = 7.40

CONFIG = dict(protocol="achilles", f=2, network="LAN", batch_size=400,
              duration_ms=300.0, warmup_ms=0.0, seed=1)


#: The same cluster fed 20 000 requests/s open loop (408 721 calls for
#: 6 017 transactions; blocks are small, so per-block work dominates).  An
#: emit event and a client-submit event per arrival add ~26; the per-event
#: chains this budget was last lowered for read 84.87.
OPEN_LOOP_CALLS_PER_TX = 67.93

#: Calls per simulator event, per protocol, at f=2 LAN saturated with
#: blocks of 10 (so an event's fixed cost is not drowned by its block's):
#: ``name: (budget, what the tree before the per-event cuts read)``.  One
#: more call on the pop, send or deliver chain adds 1.0-2.0.
CALLS_PER_EVENT = {
    "achilles": (44.31, 57.42),
    "achilles-c": (44.28, 57.40),
    "braft": (35.05, 43.72),
    "damysus": (50.72, 64.26),
    "damysus-r": (51.09, 64.93),
    "flexibft": (31.05, 43.60),
    "minbft": (46.66, 58.94),
    "minbft-r": (53.04, 65.72),
    "oneshot": (53.62, 66.73),
    "oneshot-r": (52.12, 65.62),
}

#: Calls from ``Network.send`` to the end of the receiver's unit of work,
#: for one message on an idle LAN: the send loop, two simulator events
#: (arrival, dispatch behind the CPU), a no-op handler and the flush, plus
#: the ``run`` that drives them.  48 before the per-event cuts.
DELIVERY_CALLS = 30


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
    assert per_tx <= 1.1 * OPEN_LOOP_CALLS_PER_TX, (
        f"{per_tx:.2f} host calls per committed transaction "
        f"(budget {1.1 * OPEN_LOOP_CALLS_PER_TX:.2f}): open-loop arrivals "
        f"cost an event or a call chain each again")


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


def test_a_memoised_signature_verdict_costs_one_call():
    pairs = generate_keypairs(range(3), seed=1)
    keyring = Keyring.from_keypairs(pairs)
    signature = sign(pairs[1].private, "statement")
    digest = signature.digest
    assert verify(keyring, signature, digest=digest)        # fills the memo
    assert calls_of(lambda: verify(keyring, signature, digest=digest)) == 1
