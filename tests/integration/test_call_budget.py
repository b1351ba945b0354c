"""A host-call budget per committed transaction.

The simulator's cost rule (docs/PERFORMANCE.md, "Per-block paths") is that
work done once per block makes no Python-level call per transaction.  The
performance ledger would show a breach as a worse ``host_mcalls`` row; this
test shows it as a failing tier-1 test.  Call counts are a property of the
code, not of the machine: the same run makes the same calls everywhere.
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


def test_calls_per_committed_transaction_stay_in_budget():
    # Lazy imports and first-use caches are not part of the steady state.
    run_experiment(**{**CONFIG, "duration_ms": 30.0})
    profile = cProfile.Profile()
    profile.enable()
    result = run_experiment(**CONFIG)
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    assert result.txs_committed == 35_600
    per_tx = calls / result.txs_committed
    assert per_tx <= 1.1 * CALLS_PER_TX, (
        f"{per_tx:.2f} host calls per committed transaction "
        f"(budget {1.1 * CALLS_PER_TX:.2f}): a per-item call crept into a "
        f"per-block path")
