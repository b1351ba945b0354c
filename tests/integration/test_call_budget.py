"""A host-call budget per committed transaction.

The simulator's cost rule (docs/PERFORMANCE.md, "Per-block paths") is that
work done once per block makes no Python-level call per transaction, and
("Arrivals are data") that an open-loop arrival is not a simulator event.
The performance ledger would show a breach as a worse ``host_mcalls`` row;
this test shows it as a failing tier-1 test.  Call counts are a property of
the code, not of the machine: the same run makes the same calls everywhere.
"""

from __future__ import annotations

import cProfile

from repro.harness.runner import run_experiment

#: Calls per committed transaction measured when this budget was set
#: (298 739 calls for 35 600 transactions).  One new call per transaction
#: anywhere on the path adds 1.0 and breaks the 10 % allowance.
CALLS_PER_TX = 8.39

CONFIG = dict(protocol="achilles", f=2, network="LAN", batch_size=400,
              duration_ms=300.0, warmup_ms=0.0, seed=1)


#: The same cluster fed 20 000 requests/s open loop (509 845 calls for
#: 6 017 transactions; blocks are small, so per-block work dominates).  An
#: emit event and a client-submit event per arrival add ~26 and read 110.64.
OPEN_LOOP_CALLS_PER_TX = 84.73


def calls_per_committed_tx(config: dict) -> "tuple[float, int]":
    # Lazy imports and first-use caches are not part of the steady state.
    run_experiment(**{**config, "duration_ms": 30.0})
    profile = cProfile.Profile()
    profile.enable()
    result = run_experiment(**config)
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
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
