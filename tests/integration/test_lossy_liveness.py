"""Lossy-fabric survival: every protocol stays live and safe under
probabilistic loss/duplication/reordering/corruption once the reliable
transport is in the path.

Two acceptance bars from the robustness issue:

* **loss=0 equivalence** — a fault-free run installs no fault model and
  no transport, and reports no transport counters;
* **lossy liveness** — a protocol × loss-rate × seed sweep completes
  with zero invariant violations, nonzero commit height, and the
  transport counters showing it actually worked (retransmissions,
  dedup), with corruption *detected* (rejected), never masked.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import ChaosSpec, run_chaos
from repro.net.transport import ReliableChannel

SWEEP_PROTOCOLS = ("achilles", "achilles-c", "damysus", "minbft")
LOSS_RATES = (0.01, 0.05, 0.10)
SEEDS = (1, 2, 3, 4, 5)

SMOKE = dict(duration_ms=2200.0, quiesce_ms=900.0, warmup_ms=150.0)


class TestLossZeroEquivalence:
    """A fault-free fabric has no transport to show."""

    def test_transport_extras_absent_on_fault_free_runs(self):
        """A fault-free spec reports no transport counters at all, so
        existing report tooling sees byte-identical output."""
        result = run_chaos(ChaosSpec(protocol="achilles", f=1, **SMOKE), 3)
        assert "retransmissions" not in result.extras
        assert "fault_dropped" not in result.extras


class TestTransportEngagement:
    def test_a_lossy_run_that_never_retransmits_fails(self, monkeypatch):
        """Known bad: a transport whose retransmit timer never arms sends
        every frame once, so a lossy campaign shows zero retransmissions
        and proves nothing about delivery — the campaign must fail."""
        monkeypatch.setattr(ReliableChannel, "_arm_retransmit",
                            lambda self, peer_id, peer: None)
        spec = ChaosSpec(protocol="achilles", f=1, loss=0.05, **SMOKE)
        result = run_chaos(spec, 1)
        assert result.extras["retransmissions"] == 0
        assert any(v.startswith("[transport-engagement]")
                   for v in result.violations), result.violations


class TestLossyLiveness:
    @pytest.mark.parametrize("protocol", SWEEP_PROTOCOLS)
    @pytest.mark.parametrize("loss", LOSS_RATES)
    def test_sweep_stays_live_and_safe(self, protocol, loss):
        spec = ChaosSpec(protocol=protocol, f=1, loss=loss, **SMOKE)
        for seed in SEEDS:
            result = run_chaos(spec, seed)
            assert result.ok, (protocol, loss, seed, result.violations)
            assert result.committed_height > 0, (protocol, loss, seed)
            assert result.extras["transport_engaged"]
            assert result.extras["retransmissions"] > 0, \
                (protocol, loss, seed)

    def test_composed_faults_with_crashes(self):
        """The acceptance-criteria configuration: 5% loss + 2% dup +
        1% corrupt on top of crash/rollback/partition chaos."""
        for protocol in SWEEP_PROTOCOLS:
            spec = ChaosSpec(protocol=protocol, f=1,
                             loss=0.05, dup=0.02, corrupt=0.01,
                             crashes=1, rollbacks=1, partitions=1,
                             **SMOKE)
            for seed in SEEDS:
                result = run_chaos(spec, seed)
                assert result.ok, (protocol, seed, result.violations)
                assert result.committed_height > 0, (protocol, seed)

    def test_recovery_does_not_roll_back_stored_block(self):
        """Regression: on this exact campaign, a recovering node used to
        adopt the highest-view *leader's* stored block — a leader that had
        missed the latest committed block's proposal on the lossy fabric —
        rolling its storage state back past a commit it had participated
        in and letting view 143 re-propose (and re-commit) height 139.
        TEErecover must adopt the max-prepv reply's block instead."""
        spec = ChaosSpec(protocol="achilles-c", f=1, duration_ms=2500.0,
                         quiesce_ms=1000.0, crashes=3, rollbacks=1,
                         partitions=1, loss=0.05, dup=0.02, corrupt=0.01,
                         timeout_jitter=0.1)
        result = run_chaos(spec, 2)
        assert result.ok, result.violations
        assert result.committed_height > 0

    def test_corruption_is_detected_not_masked(self):
        spec = ChaosSpec(protocol="achilles", f=1, corrupt=0.05, **SMOKE)
        result = run_chaos(spec, 1)
        assert result.ok, result.violations
        assert result.extras["fault_corrupted"] > 0
        assert result.extras["corrupt_rejected"] > 0
        # Every rejection corresponds to an injected corruption; nothing
        # corrupt is ever silently delivered.
        assert result.extras["corrupt_rejected"] <= \
            result.extras["fault_corrupted"]

    def test_duplication_suppressed_by_transport(self):
        spec = ChaosSpec(protocol="achilles", f=1, dup=0.10, **SMOKE)
        result = run_chaos(spec, 2)
        assert result.ok, result.violations
        assert result.extras["fault_duplicated"] > 0
        assert result.extras["dup_suppressed"] > 0
        # With the transport engaged, fabric duplicates never reach the
        # replicas (modulo unsequenced ACK frames, which carry no state).
        assert result.extras["duplicates_delivered"] <= \
            result.extras["fault_duplicated"] * 0.1

    def test_lossy_run_deterministic(self):
        spec = ChaosSpec(protocol="achilles", f=1, loss=0.05, dup=0.02,
                         reorder=0.05, corrupt=0.01, **SMOKE)
        first = run_chaos(spec, 6)
        second = run_chaos(spec, 6)
        assert first.digest == second.digest
        assert first.extras == second.extras
        assert run_chaos(spec, 7).digest != first.digest

    def test_timeout_jitter_keeps_liveness(self):
        spec = ChaosSpec(protocol="achilles", f=1, loss=0.05,
                         timeout_jitter=0.2, **SMOKE)
        for seed in (1, 2, 3):
            result = run_chaos(spec, seed)
            assert result.ok, result.violations
            assert result.committed_height > 0
