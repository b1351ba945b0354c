"""End-to-end Byzantine chaos campaigns.

Three claims, run against live clusters:

1. **Defended sweep** — for every protocol in ``BYZ_DEFENDED_MATRIX``,
   stacking all of its applicable attack strategies on one replica across
   5 seeds produces *zero* invariant violations, while every configured
   strategy actually engages (nonzero attempt or TEE-denial counters).
   A quiet attack would make "defended" vacuous; the engagement check is
   what separates "survived the attack" from "the attack never ran".

2. **Negative controls** — the same attacks pointed at protocols that
   *lack* the corresponding defense must trip the expected invariant.
   These runs set ``expect_violations`` so the expected violation is
   demanded rather than tolerated: the run fails if it does NOT trip.

3. **Harness self-checks** — a configured-but-disengaged strategy and a
   demanded-but-missing violation each hard-fail the run, so the sweep
   above cannot silently pass by never attacking.
"""

from __future__ import annotations

from typing import Sequence

import pytest

from repro.faults.byz import STRATEGIES, ByzStrategy
from repro.faults.chaos import ChaosResult, ChaosSpec, run_chaos
from repro.harness.parallel import run_experiments


#: Defended-protocol Byzantine sweep: protocol → *bundles* of stacked
#: strategies, each bundle one chaos run (the robustness claim: every
#: attack engages, zero invariants trip).  Bundles group strategies that
#: can all demonstrably engage in one run: equivocate's split horizon
#: plus withhold-vote silences three of five voters whenever the
#: Byzantine replica leads, so the quorum stalls its slots and backoff
#: collapses throughput — legitimate attack behaviour, but it starves
#: hide-decide of the commit traffic its engagement check needs.  The
#: adversarial combination is still covered (first bundle); reactive
#: strategies ride in calmer company.
BYZ_DEFENDED_MATRIX: "dict[str, tuple[tuple[str, ...], ...]]" = {
    "achilles": (("equivocate", "withhold-vote", "garbage"),
                 ("hide-decide", "lie-recovery", "replay-recovery")),
    "achilles-c": (("equivocate", "withhold-vote", "garbage"),
                   ("hide-decide", "lie-recovery", "replay-recovery")),
    "minbft": (("equivocate", "withhold-vote", "garbage"),
               ("hide-decide", "skip-counter")),
    "damysus": (("equivocate", "withhold-vote", "garbage"),
                ("hide-decide",)),
    "damysus-r": (("equivocate", "withhold-vote", "garbage"),
                  ("hide-decide", "stale-seal")),
}

#: Negative controls: (protocol, strategies, invariants that MUST trip).
#: Unprotected baselines demonstrably break where the TEE-defended
#: protocols hold — proof that the attacks are real, not no-ops.
BYZ_NEGATIVE_CONTROLS: "tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]" = (
    ("braft", ("equivocate",), ("agreement",)),
    ("damysus", ("stale-seal",), ("sealed-state-freshness",)),
    ("oneshot", ("stale-seal",), ("sealed-state-freshness",)),
)


def byz_defended_sweep(seeds: Sequence[int] = range(5), f: int = 2,
                       duration_ms: float = 2500.0,
                       quiesce_ms: float = 1000.0) -> "list":
    """Run the full defended matrix: every strategy bundle stacked on one
    Byzantine replica, per protocol × bundle × seed.  Returns
    :class:`~repro.faults.chaos.ChaosResult` objects — callers assert
    zero violations and nonzero attempt counters per strategy."""
    configs = []
    for protocol, bundles in BYZ_DEFENDED_MATRIX.items():
        for bundle in bundles:
            # The quorum-starvation bundle stalls every Byzantine-led view
            # (split horizon + withheld vote leave 2 < f+1 voters), which
            # is survivable alone but compounds with honest crashes into
            # runaway pacemaker backoff — "eventually live" drifting past
            # the post-quiesce window.  Measure pure Byzantine pressure
            # there; the reactive bundle keeps the full crash/rollback
            # load (the recovery attacks need crash victims to lie to).
            quorum_attack = "withhold-vote" in bundle and \
                "equivocate" in bundle
            spec = ChaosSpec(
                protocol=protocol, f=f, duration_ms=duration_ms,
                quiesce_ms=quiesce_ms, byz=bundle, byz_nodes=1,
                **({"crashes": 0, "rollbacks": 0} if quorum_attack else {}))
            configs += [{"spec": spec, "seed": seed} for seed in seeds]
    return run_experiments(configs, runner=run_chaos, result_type=ChaosResult)


def byz_negative_controls(seed: int = 1, f: int = 2,
                          duration_ms: float = 2500.0,
                          quiesce_ms: float = 1000.0) -> "list":
    """Run the negative-control set: each unprotected baseline under the
    attack its missing defense admits, in expect-violation mode."""
    configs = [
        {"spec": ChaosSpec(protocol=protocol, f=f, duration_ms=duration_ms,
                           quiesce_ms=quiesce_ms, byz=strategies, byz_nodes=1,
                           expect_violations=expected),
         "seed": seed}
        for protocol, strategies, expected in BYZ_NEGATIVE_CONTROLS
    ]
    return run_experiments(configs, runner=run_chaos, result_type=ChaosResult)


class TestDefendedSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return byz_defended_sweep(seeds=range(5), duration_ms=2500.0,
                                  quiesce_ms=1000.0)

    def test_matrix_covers_enough_ground(self):
        assert len(BYZ_DEFENDED_MATRIX) >= 4
        distinct = {s for bundles in BYZ_DEFENDED_MATRIX.values()
                    for bundle in bundles for s in bundle}
        assert len(distinct) >= 6
        for bundles in BYZ_DEFENDED_MATRIX.values():
            assert sum(len(b) for b in bundles) >= 4

    def test_every_run_holds_every_invariant(self, sweep):
        failures = [
            f"{r.protocol} seed={r.seed}: {r.violations}"
            for r in sweep if r.violations
        ]
        assert not failures, "\n".join(failures)

    def test_every_configured_strategy_engaged_in_every_run(self, sweep):
        runs = sum(len(bundles) for bundles in BYZ_DEFENDED_MATRIX.values())
        assert len(sweep) == runs * 5
        quiet = []
        for r in sweep:
            attempts = r.extras["byz_attempts"]
            denials = r.extras["byz_denials"]
            for name in r.extras["byz_strategies"]:
                if STRATEGIES[name].needs_recovery:
                    continue  # gated on recoveries; covered by run_chaos
                if not (attempts.get(name, 0) or denials.get(name, 0)):
                    quiet.append(f"{r.protocol} seed={r.seed}: {name}")
        assert not quiet, "\n".join(quiet)

    def test_tee_gated_attacks_are_denied_not_just_absorbed(self, sweep):
        """On the checker-based protocols, equivocate's duplicate
        certificate requests must be *refused by the enclave*, not merely
        outvoted.  (MinBFT's defense is receiver-side USIG verification —
        the sender's TEE never sees the tampered copy — so it is exempt.)
        """
        checker_gated = {"achilles", "achilles-c", "damysus", "damysus-r"}
        for r in sweep:
            if r.protocol not in checker_gated or \
                    "equivocate" not in r.extras["byz_strategies"]:
                continue
            assert r.extras["byz_denials"].get("equivocate", 0) > 0, \
                f"{r.protocol} seed={r.seed}: no TEE denials"


class TestNegativeControls:
    @pytest.fixture(scope="class")
    def controls(self):
        return byz_negative_controls(duration_ms=2500.0, quiesce_ms=1000.0)

    def test_at_least_three_controls(self):
        assert len(BYZ_NEGATIVE_CONTROLS) >= 3

    def test_every_attack_lands_on_the_undefended_protocol(self, controls):
        assert len(controls) == len(BYZ_NEGATIVE_CONTROLS)
        for r, (protocol, _, expected) in zip(controls,
                                              BYZ_NEGATIVE_CONTROLS):
            assert r.protocol == protocol
            # expect_violations flips the check: tripping is success,
            # so a landed attack reports zero *unexpected* violations...
            assert r.violations == [], \
                f"{protocol}: {r.violations}"
            # ...and the demanded invariants all show up as tripped.
            assert set(expected) <= set(r.extras["expected_tripped"]), \
                f"{protocol}: expected {expected}, " \
                f"tripped {r.extras['expected_tripped']}"
            assert sum(r.extras["byz_attempts"].values()) > 0


class _NoopStrategy(ByzStrategy):
    """Registers, applies everywhere, never does anything."""

    name = "noop-test"


class TestHarnessSelfChecks:
    def test_disengaged_strategy_hard_fails_the_run(self):
        STRATEGIES["noop-test"] = _NoopStrategy
        try:
            spec = ChaosSpec(protocol="achilles", byz=("noop-test",),
                             duration_ms=2000.0, quiesce_ms=800.0)
            result = run_chaos(spec, seed=1)
        finally:
            del STRATEGIES["noop-test"]
        assert any("[byz-engagement]" in v and "noop-test" in v
                   for v in result.violations), result.violations

    def test_missing_expected_violation_hard_fails_the_run(self):
        """Demanding an agreement violation from a defended protocol must
        fail loudly — a negative control that cannot land is a broken
        control, not a pass."""
        spec = ChaosSpec(protocol="achilles", byz=("equivocate",),
                         expect_violations=("agreement",),
                         duration_ms=2000.0, quiesce_ms=800.0)
        result = run_chaos(spec, seed=1)
        assert any("[expected-violation-missing]" in v and "agreement" in v
                   for v in result.violations), result.violations
