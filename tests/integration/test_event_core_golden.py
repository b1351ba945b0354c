"""Golden-digest pins: two files, one run per configuration.

The timer-wheel / pooled-event rewrite of :mod:`repro.sim.events` promises
*bit-identical* runs: same committed blocks, same metrics, same simulated
event counts, same trace digests.  These tests pin a representative slice
of the figure sweeps (fig3 protocol/network points, a fig4 open-loop
point, a fig5 counter point), a traced run, a lossy-fabric run, and two
composed chaos+byz+lossy campaigns to digests captured on the pre-wheel
heap implementation.  Any behavioural drift in the event core — ordering,
RNG draw sequence, event counts — shows up here as a digest mismatch.

The same fence covers the campaign runners' assembly: one clean campaign
and one negative control per kind (chaos, soak, power-cut, shard-chaos),
captured before the runners were rebuilt on one shared deployment
assembly.  Each kind has an entry whose ``violations`` list is non-empty,
because the violation strings — the per-kind verdict wording included —
feed the result digest.

Each configuration is run once and pinned in two files:

* ``tests/golden/event_core_golden.json`` — the run digest, which hashes
  the simulator's event count along with everything else.  It moves when
  *anything* moves, including a change that only takes work out of the
  event loop.
* ``tests/golden/outcome_golden.json`` — a digest of
  ``dataclasses.asdict(result)`` with every ``sim_events`` and ``digest``
  key removed, recursively (so each power-cut ``cuts`` entry is covered).
  It moves only when something a user of the result can see moves:
  heights, latencies, violations, windows, counters.

A change that is meant to alter how many events a run takes and nothing
else (arrivals pulled as data, a region-parallel event core) therefore
reads "event-core moved, outcome did not"; re-pin the first file and
leave the second alone.  Any other combination is a behaviour change
and needs its own explanation.

Regenerate (only when an *intentional* change lands) with::

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest \
        tests/integration/test_event_core_golden.py -q

which rewrites both files from the same single run per entry and
prints, per entry, which of the two digests moved.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from repro.crypto.hashing import digest_of
from repro.faults.chaos import ChaosSpec, run_chaos
from repro.faults.powercut import PowercutSpec, run_powercut
from repro.harness.runner import build_deployment, run_experiment
from repro.harness.soak import SoakSpec, run_soak
from repro.net.faults import LinkFaultModel
from repro.net.transport import TransportConfig
from repro.shard.chaos import ShardChaosSpec, run_shard_chaos

from tests.property.test_tx_batch import checked_batches
from tests.property.test_tx_key_set import checked_key_sets

_GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_PATH = _GOLDEN_DIR / "event_core_golden.json"
OUTCOME_PATH = _GOLDEN_DIR / "outcome_golden.json"
_REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

# ----------------------------------------------------------------------
# Pinned configurations.  Deliberately small-n / short-duration: the point
# is sensitivity (every field of the result feeds the digest), not load.
# ----------------------------------------------------------------------
EXPERIMENTS: dict[str, dict] = {
    # fig3-style closed-loop points across protocols and networks.
    "fig3_achilles_lan": dict(protocol="achilles", f=1, network="LAN",
                              batch_size=100, payload_size=64,
                              duration_ms=400.0, warmup_ms=100.0, seed=3),
    "fig3_achilles_wan": dict(protocol="achilles", f=2, network="WAN",
                              batch_size=200, payload_size=256,
                              duration_ms=1200.0, warmup_ms=300.0, seed=2),
    "fig3_flexibft_lan": dict(protocol="flexibft", f=1, network="LAN",
                              batch_size=100, payload_size=64,
                              duration_ms=400.0, warmup_ms=100.0, seed=3),
    "fig3_oneshot_r_lan": dict(protocol="oneshot-r", f=1, network="LAN",
                               batch_size=100, payload_size=64,
                               duration_ms=400.0, warmup_ms=100.0, seed=3),
    # fig5-style persistent-counter point.
    "fig5_damysus_r_c20": dict(protocol="damysus-r", f=1, network="LAN",
                               batch_size=100, payload_size=64,
                               counter_write_ms=20.0,
                               duration_ms=400.0, warmup_ms=100.0, seed=3),
    # fig4-style open-loop point.
    "fig4_achilles_open_loop": dict(protocol="achilles", f=1, network="LAN",
                                    batch_size=100, payload_size=64,
                                    offered_load_tps=20000.0,
                                    duration_ms=600.0, warmup_ms=150.0,
                                    seed=5),
    # Span tracing on: pins the obs digest and critical-path buckets too.
    "traced_achilles_lan": dict(protocol="achilles", f=1, network="LAN",
                                batch_size=100, payload_size=64,
                                duration_ms=400.0, warmup_ms=100.0, seed=3,
                                trace=True),
    # Lossy fabric + reliable transport (see LOSSY): pins retransmit/dedup
    # counters.
    "lossy_achilles_lan": dict(protocol="achilles", f=1, network="LAN",
                               batch_size=100, payload_size=64,
                               duration_ms=600.0, warmup_ms=150.0, seed=7),
}

#: name -> the fabric fault rates an experiment above runs under.  No
#: experiment a user runs is lossy (a lossy run is a chaos campaign, its
#: rates ``ChaosSpec`` fields), so the pin installs the fault model and
#: the reliable transport on the deployment ``run_experiment`` builds.
LOSSY = {"lossy_achilles_lan": dict(loss=0.05, dup=0.02, corrupt=0.01)}

#: name -> (runner, spec, seed); every runner returns a result with a
#: deterministic ``digest`` over tips, violation strings and event count.
CAMPAIGNS: dict[str, tuple] = {
    # Crashes + rollbacks + partition + lossy fabric + a Byzantine voter:
    # the full composed stack over the new event core.
    "chaos_byz_lossy_achilles": (
        run_chaos,
        ChaosSpec(protocol="achilles", f=2, duration_ms=2200.0,
                  quiesce_ms=900.0, warmup_ms=150.0, crashes=3, rollbacks=2,
                  partitions=1, loss=0.02, dup=0.01, corrupt=0.005,
                  byz=("withhold-vote",)),
        4,
    ),
    # Seed 6 rolls node 0 back: its counter refuses the stale seal and it
    # halts at height 16 while the other two commit on.
    "chaos_damysus_r": (
        run_chaos,
        ChaosSpec(protocol="damysus-r", f=1, duration_ms=2200.0,
                  quiesce_ms=900.0, warmup_ms=150.0, crashes=2, rollbacks=2,
                  partitions=0),
        6,
    ),
    # Snapshot vault + the stale-snapshot attack on the trust-sealed
    # baseline: the expected invariant trips, the campaign passes.
    "chaos_stale_snapshot_control": (
        run_chaos,
        ChaosSpec(protocol="achilles", f=1, duration_ms=2500.0,
                  quiesce_ms=1000.0, crashes=0, rollbacks=0, partitions=0,
                  snapshot_interval=5, byz=("stale-snapshot",),
                  snapshot_trust_sealed=True,
                  expect_violations=("sealed-state-freshness",)),
        0,
    ),
    # The same attack on the defended restore path: nothing trips, so the
    # control fails with chaos's "the attack did not land" line.
    "chaos_stale_snapshot_defended": (
        run_chaos,
        ChaosSpec(protocol="achilles", f=1, duration_ms=2500.0,
                  quiesce_ms=1000.0, crashes=0, rollbacks=0, partitions=0,
                  snapshot_interval=5, byz=("stale-snapshot",),
                  expect_violations=("sealed-state-freshness",)),
        0,
    ),
    # Crash/reboot on every protocol the entries above do not reboot: one
    # campaign each, pinned before the six `reboot` bodies became one
    # lifecycle template (which moved none of them but FlexiBFT's).
    # Rollback victims only where the protocol defends (the planner skips
    # the rest).
    "chaos_crash_oneshot_r": (
        # The replica whose -R counter detects the stale seal halts, which
        # recovery-liveness does not count: a clean run.
        run_chaos,
        ChaosSpec(protocol="oneshot-r", f=2, duration_ms=2200.0,
                  quiesce_ms=900.0, warmup_ms=150.0, crashes=4, rollbacks=2,
                  partitions=1),
        1,
    ),
    "chaos_crash_minbft": (
        run_chaos,
        ChaosSpec(protocol="minbft", f=2, duration_ms=2200.0,
                  quiesce_ms=900.0, warmup_ms=150.0, crashes=4, rollbacks=1,
                  partitions=1),
        3,
    ),
    "chaos_crash_achilles_c": (
        run_chaos,
        ChaosSpec(protocol="achilles-c", f=2, duration_ms=2200.0,
                  quiesce_ms=900.0, warmup_ms=150.0, crashes=4, rollbacks=2,
                  partitions=1),
        2,
    ),
    "chaos_crash_damysus": (
        run_chaos,
        ChaosSpec(protocol="damysus", f=2, duration_ms=2200.0,
                  quiesce_ms=900.0, warmup_ms=150.0, crashes=4, rollbacks=0,
                  partitions=1),
        0,
    ),
    "chaos_crash_flexibft": (
        # Leader 0 crashes at 433 ms, backup 2 at 1157 ms.  While FlexiBFT
        # had no reboot path the rebooted leader never re-armed its view
        # timer and this run ended wedged at height 77 with a
        # post-quiesce-liveness line; re-pinned clean (height 344) with the
        # lifecycle template.  (Seed 3 of the CLI-default spec trips
        # FlexiBFT's view-change safety hole, see ROADMAP item 5(a) and
        # test_chaos.py; this seed completes.)
        run_chaos,
        ChaosSpec(protocol="flexibft", f=1, duration_ms=2200.0,
                  quiesce_ms=900.0, warmup_ms=150.0, crashes=4, rollbacks=0,
                  partitions=1),
        5,
    ),
    "chaos_crash_braft": (
        run_chaos,
        ChaosSpec(protocol="braft", f=2, duration_ms=2200.0,
                  quiesce_ms=900.0, warmup_ms=150.0, crashes=4, rollbacks=0,
                  partitions=1),
        1,
    ),
    # Victim 4 is rolled back, detects it and halts at 445 ms; the plan
    # crashes it again, and it reboots under a fresh attacker, detects the
    # rollback again at 2301 ms and halts again.  Its outcome was
    # re-pinned once, when the second episode's attacker started being
    # counted: rollbacks_mounted 1 -> 2, the only field that moved.
    "chaos_rollback_victim_crashed_twice": (
        run_chaos,
        ChaosSpec(protocol="damysus-r", f=2),
        26,
    ),
    "soak_leader_storm_damysus": (
        run_soak,
        SoakSpec(protocol="damysus", scenario="leader-storm",
                 warmup_ms=500.0, pressure_ms=1500.0,
                 reconverge_budget_ms=1500.0, settle_ms=500.0),
        0,
    ),
    "soak_recovery_under_load": (
        run_soak,
        SoakSpec(scenario="recovery-under-load", warmup_ms=500.0,
                 pressure_ms=1000.0, reconverge_budget_ms=1500.0,
                 settle_ms=500.0),
        1,
    ),
    # One strike fits the pressure window; its reboot mounts one rollback
    # attack.  Pinned as it is: the run misses its reconvergence budget.
    "soak_rollback_loop_damysus_r": (
        run_soak,
        SoakSpec(protocol="damysus-r", scenario="rollback-loop",
                 warmup_ms=500.0, pressure_ms=1500.0,
                 reconverge_budget_ms=1500.0, settle_ms=500.0),
        1,
    ),
    # The canonical vulnerable control: the cycle detector trips.
    "soak_vulnerable_control": (
        run_soak,
        SoakSpec(protocol="minbft", scenario="flash-crowd", vulnerable=True,
                 warmup_ms=800.0, pressure_ms=2000.0,
                 reconverge_budget_ms=2500.0, settle_ms=1500.0,
                 expect_violations=("degradation-cycle",
                                    "post-quiesce-liveness")),
        0,
    ),
    # A defended campaign run as a control: "the degradation did not land".
    "soak_defended_expect_missing": (
        run_soak,
        SoakSpec(scenario="flash-crowd", warmup_ms=400.0, pressure_ms=800.0,
                 reconverge_budget_ms=2000.0, settle_ms=800.0, clients=5000,
                 expect_violations=("degradation-cycle",)),
        1,
    ),
    # Journaled, with the snapshot vault and a persistent counter (-R).
    "powercut_snapshot_damysus_r": (
        run_powercut,
        PowercutSpec(protocol="damysus-r", duration_ms=1200.0,
                     quiesce_ms=500.0, warmup_ms=150.0, max_cuts=3,
                     snapshot_interval=5),
        1,
    ),
    "powercut_journal_off_control": (
        run_powercut,
        PowercutSpec(protocol="minbft", duration_ms=1200.0, quiesce_ms=500.0,
                     warmup_ms=150.0, max_cuts=2, journal_off=True,
                     expect_violations=("durable-prefix",)),
        0,
    ),
    # Journal on, run as a control: "the journal-off recovery hid nothing".
    "powercut_journaled_expect_missing": (
        run_powercut,
        PowercutSpec(protocol="achilles", duration_ms=1000.0,
                     quiesce_ms=500.0, warmup_ms=150.0, max_cuts=1,
                     reorder_cuts=0, expect_violations=("durable-prefix",)),
        2,
    ),
    "shard_chaos_crash": (
        run_shard_chaos,
        ShardChaosSpec(duration_ms=3000.0, quiesce_ms=1000.0,
                       downtime_ms=600.0, rate_tps=800.0, txn_ttl_blocks=600),
        0,
    ),
    # --no-ttl with a downtime inside the router's retry budget: the abort
    # still reaches the victim, so "the scenario did not land".
    "shard_chaos_no_ttl_expect_missing": (
        run_shard_chaos,
        ShardChaosSpec(duration_ms=3000.0, quiesce_ms=1000.0,
                       downtime_ms=600.0, rate_tps=800.0, txn_ttl_blocks=None,
                       expect_violations=("cross-shard-atomicity",)),
        0,
    ),
}


def _canonical(tag: str, payload) -> str:
    # Results hold only scalars, strings, lists and string-keyed dicts for
    # every pinned config; JSON with sorted keys + repr floats is a
    # canonical encoding of that.
    return digest_of(tag, json.dumps(payload, sort_keys=True, default=str))


def _without_event_counts(value):
    """``value`` minus every ``sim_events`` / ``digest`` key, recursively."""
    if isinstance(value, dict):
        return {k: _without_event_counts(v) for k, v in value.items()
                if k not in ("sim_events", "digest")}
    if isinstance(value, (list, tuple)):
        return [_without_event_counts(v) for v in value]
    return value


def _lossy_experiment(rates: dict, config: dict):
    """``run_experiment`` over a lossy fabric behind the reliable
    transport; ``extras`` gain the fabric's and the transport's
    counters."""
    built = []

    def lossy_build(*args, **kwargs):
        built.append(build_deployment(
            *args, faults=LinkFaultModel(**rates),
            transport=TransportConfig(), **kwargs))
        return built[-1]

    with mock.patch("repro.harness.runner.build_deployment", lossy_build):
        result = run_experiment(**config)
    network = built[0].cluster.network
    stats, totals = network.stats, network.transport_totals()
    result.extras.update(
        net_fault_dropped=stats.fault_dropped,
        net_fault_duplicated=stats.fault_duplicated,
        net_fault_corrupted=stats.fault_corrupted,
        net_corrupt_rejected=stats.corrupt_rejected,
        net_retransmissions=totals.get("retransmissions", 0),
        net_dup_suppressed=totals.get("dup_suppressed", 0),
        net_acks_sent=totals.get("acks_sent", 0),
        net_window_evictions=totals.get("window_evictions", 0),
        # Unique application deliveries per message offered to the wire.
        net_goodput=round((stats.messages_delivered
                           - stats.duplicates_delivered)
                          / stats.messages_sent, 4))
    return result


def compute_digests(name: str) -> tuple:
    """``(event-core digest, outcome digest)`` of one pinned run.

    The event-core digest of a power-cut exploration is the result digest
    followed by the digest of every replayed cut, so a drift names the cut
    it is in.
    """
    if name in EXPERIMENTS:
        result = _lossy_experiment(LOSSY[name], EXPERIMENTS[name]) \
            if name in LOSSY else run_experiment(**EXPERIMENTS[name])
        payload = dataclasses.asdict(result)
        event_core = _canonical("event-core-golden", payload)
    else:
        runner, spec, seed = CAMPAIGNS[name]
        result = runner(spec, seed)
        payload = dataclasses.asdict(result)
        event_core = result.digest
        cuts = getattr(result, "cuts", None)
        if cuts is not None:
            event_core = [event_core] + [cut.digest for cut in cuts]
    return event_core, _canonical("outcome-golden",
                                  _without_event_counts(payload))


def _load(path: Path) -> dict:
    if not path.exists():
        pytest.fail(f"golden file missing: {path}")
    return json.loads(path.read_text())


#: name -> (event-core digest, outcome digest), filled while regenerating.
_fresh: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _regenerate(pytestconfig):
    """Under ``REPRO_REGEN_GOLDEN=1``: after the module's runs, fold the
    fresh digests into both files and say which moved."""
    yield
    if not (_REGEN and _fresh):
        return
    columns = ((GOLDEN_PATH, "event-core", 0), (OUTCOME_PATH, "outcome", 1))
    pinned = {path: json.loads(path.read_text()) if path.exists() else {}
              for path, _, _ in columns}
    lines = [""]
    for name in sorted(_fresh):
        verdicts = []
        for path, label, index in columns:
            old, new = pinned[path].get(name), _fresh[name][index]
            verdicts.append(f"{label} " + ("new" if old is None else
                                           "same" if old == new else "MOVED"))
            pinned[path][name] = new
        lines.append(f"golden {name}: {', '.join(verdicts)}")
    for path, _, _ in columns:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(pinned[path], indent=2, sort_keys=True)
                        + "\n")
    lines.append(f"wrote {len(_fresh)} entries to {GOLDEN_PATH.name} "
                 f"and {OUTCOME_PATH.name}")
    capture = pytestconfig.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled():
        print("\n".join(lines))


@pytest.mark.parametrize("name", sorted(list(EXPERIMENTS) + list(CAMPAIGNS)))
def test_event_core_digest_matches_golden(name: str) -> None:
    if _REGEN:
        _fresh[name] = compute_digests(name)
        return
    golden, outcomes = _load(GOLDEN_PATH), _load(OUTCOME_PATH)
    assert name in golden and name in outcomes, \
        f"no golden recorded for {name}; regenerate"
    # Every transaction key set the run makes checks its answers against
    # a set as it goes (tests/property/test_tx_key_set.py), and every
    # batch it takes against the transactions it stands for
    # (tests/property/test_tx_batch.py).
    with checked_key_sets(), checked_batches():
        event_core, outcome = compute_digests(name)
    assert outcome == outcomes[name], (
        f"{name}: the run's outcome (everything but its event count) "
        f"drifted from the golden — a behaviour change, not an event-loop one"
    )
    assert event_core == golden[name], (
        f"{name}: run digest drifted from the golden while the outcome did "
        f"not — the run takes a different number of simulator events"
    )
