"""Unit tests for the composable Byzantine strategy engine
(:mod:`repro.faults.byz`) and its chaos-spec wiring."""

from __future__ import annotations

import pytest

from repro.baselines.braft import BRaftNode
from repro.baselines.damysus.node import DamysusNode
from repro.baselines.minbft import MinBFTNode
from repro.core.node import AchillesNode
from repro.errors import ConfigurationError
from repro.faults.byz import (
    STRATEGIES,
    ByzGarbage,
    applicable_strategies,
    make_byzantine,
    resolve_strategies,
)
from repro.faults.chaos import ChaosSpec, generate_campaign


class TestCatalog:
    def test_all_ten_strategies_registered(self):
        assert set(STRATEGIES) == {
            "replay-recovery", "lie-recovery", "skip-counter", "equivocate",
            "hide-decide", "withhold-vote", "stale-seal", "stale-snapshot",
            "garbage", "silent",
        }

    def test_resolve_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown Byzantine strategies"):
            resolve_strategies(["equivocate", "nonsense"])

    def test_resolve_returns_canonical_chain_order(self):
        # Specific interceptors before broad suppressors, silent last.
        assert resolve_strategies(["silent", "garbage", "equivocate"]) == \
            ["equivocate", "garbage", "silent"]

    def test_garbage_payload_has_a_wire_size(self):
        assert ByzGarbage(blob="x" * 16).wire_size() == 24


class TestApplicability:
    def test_recovery_attacks_only_apply_to_recovery_protocols(self):
        names = ["replay-recovery", "lie-recovery", "garbage"]
        applicable, skipped = applicable_strategies(AchillesNode, names)
        assert applicable == names
        applicable, skipped = applicable_strategies(MinBFTNode, names)
        assert applicable == ["garbage"]
        assert skipped == ["replay-recovery", "lie-recovery"]

    def test_counter_skip_only_applies_to_usig_protocols(self):
        applicable, skipped = applicable_strategies(
            MinBFTNode, ["skip-counter"])
        assert applicable == ["skip-counter"]
        applicable, skipped = applicable_strategies(
            AchillesNode, ["skip-counter"])
        assert skipped == ["skip-counter"]

    def test_stale_seal_only_applies_to_sealing_protocols(self):
        applicable, _ = applicable_strategies(DamysusNode, ["stale-seal"])
        assert applicable == ["stale-seal"]
        _, skipped = applicable_strategies(AchillesNode, ["stale-seal"])
        assert skipped == ["stale-seal"]

    def test_hide_decide_needs_a_decide_kind(self):
        _, skipped = applicable_strategies(BRaftNode, ["hide-decide"])
        assert skipped == ["hide-decide"]  # braft has no Decide broadcast


class TestMakeByzantine:
    def test_subclasses_any_protocol(self):
        for node_cls in (AchillesNode, MinBFTNode, DamysusNode, BRaftNode):
            byz_cls = make_byzantine(node_cls, ["withhold-vote", "garbage"])
            assert issubclass(byz_cls, node_cls)
            assert byz_cls.__name__ == f"Byz{node_cls.__name__}"
            assert byz_cls.byz_strategy_names == ("withhold-vote", "garbage")

    def test_strategy_names_are_validated_eagerly(self):
        with pytest.raises(ValueError, match="unknown"):
            make_byzantine(AchillesNode, ["not-a-strategy"])


class TestChaosSpecValidation:
    def test_unknown_strategy_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown Byzantine"):
            ChaosSpec(byz=("no-such-attack",))

    def test_byz_nodes_defaults_to_one_when_strategies_given(self):
        assert ChaosSpec(byz=("garbage",)).byz_nodes == 1

    def test_byz_nodes_bounded_by_f(self):
        with pytest.raises(ConfigurationError, match="fault budget"):
            ChaosSpec(f=1, byz=("garbage",), byz_nodes=2)

    def test_byz_nodes_without_strategies_rejected(self):
        with pytest.raises(ConfigurationError, match="without any"):
            ChaosSpec(byz_nodes=1)

    def test_lists_normalize_to_tuples(self):
        spec = ChaosSpec(byz=["garbage"], expect_violations=["agreement"])
        assert spec.byz == ("garbage",)
        assert spec.expect_violations == ("agreement",)


class TestCampaignGeneration:
    def test_byz_layer_is_deterministic(self):
        spec = ChaosSpec(byz=("equivocate", "garbage"), f=2)
        a = generate_campaign(spec, 3)
        b = generate_campaign(spec, 3)
        assert a == b
        assert len(a.byz_ids) == 1
        assert a.byz_strategies == ("equivocate", "garbage")

    def test_byz_nodes_never_get_honest_crash_events(self):
        spec = ChaosSpec(byz=("garbage",), byz_nodes=2, f=2, crashes=6)
        for seed in range(8):
            campaign = generate_campaign(spec, seed)
            byz = set(campaign.byz_ids)
            # "garbage" schedules no self-reboot, so no crash (and no
            # rollback riding on one) lands on a Byzantine replica.
            assert not byz & {c.node for c in campaign.faults.crashes}

    def test_no_byz_spec_generates_no_byz_layer(self):
        """A spec without Byzantine strategies yields an empty byz layer —
        the engine is strictly opt-in (outcome neutrality when disabled)."""
        plain = generate_campaign(ChaosSpec(f=2, crashes=3), 5)
        assert plain.byz_ids == ()
        assert plain.byz_strategies == ()
        # Every crash is an honest attempt: no Byzantine self-reboot.
        assert len(plain.faults.crashes) + plain.crashes_dropped == 3

    def test_inapplicable_strategies_are_recorded_not_dropped(self):
        spec = ChaosSpec(protocol="minbft", byz=("replay-recovery", "garbage"))
        campaign = generate_campaign(spec, 1)
        assert campaign.byz_strategies == ("garbage",)
        assert campaign.byz_skipped == ("replay-recovery",)
        assert "skipped" in campaign.describe()

    def test_stale_seal_schedules_a_byz_self_reboot(self):
        spec = ChaosSpec(protocol="damysus", byz=("stale-seal",))
        campaign = generate_campaign(spec, 1)
        [reboot] = [c for c in campaign.faults.crashes
                    if c.node in campaign.byz_ids]
        assert not reboot.rollback  # the strategy feeds the stale blob
        start, end = spec.fault_window
        assert start <= reboot.at_ms < end

    def test_byz_nodes_shrink_the_honest_crash_budget(self):
        """With byz_nodes == f every honest crash is dropped: Byzantine
        replicas already exhaust the concurrent-fault budget."""
        spec = ChaosSpec(f=1, crashes=5, byz=("garbage",), byz_nodes=1)
        for seed in range(5):
            campaign = generate_campaign(spec, seed)
            assert campaign.faults.crashes == ()
            assert campaign.crashes_dropped == 5
