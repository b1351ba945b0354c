"""Unit tests for the TrInc/USIG trusted counter."""

from __future__ import annotations

import pytest

from repro.crypto.keys import Keyring, generate_keypairs
from repro.errors import EnclaveAbort
from repro.tee.counters import ConfigurableCounter
from repro.tee.rollback import RollbackAttacker
from repro.tee.trinc import Usig

N = 4


@pytest.fixture
def world():
    pairs = generate_keypairs(range(N), seed=3)
    ring = Keyring.from_keypairs(pairs)
    usigs = {
        i: Usig(node_id=i, private_key=pairs[i].private, keyring=ring)
        for i in range(N)
    }
    return pairs, ring, usigs


class TestCreateVerify:
    def test_counter_values_are_sequential(self, world):
        _, _, usigs = world
        u1 = usigs[0].create_ui("m1")
        u2 = usigs[0].create_ui("m2")
        assert (u1.counter, u2.counter) == (1, 2)

    def test_verify_accepts_in_order(self, world):
        _, _, usigs = world
        u1 = usigs[0].create_ui("m1")
        u2 = usigs[0].create_ui("m2")
        assert usigs[1].verify_ui(u1, "m1")
        assert usigs[1].verify_ui(u2, "m2")

    def test_gap_detected(self, world):
        _, _, usigs = world
        usigs[0].create_ui("m1")
        u2 = usigs[0].create_ui("m2")
        with pytest.raises(EnclaveAbort, match="gap"):
            usigs[1].verify_ui(u2, "m2")  # m1's UI was never presented

    def test_replay_detected(self, world):
        _, _, usigs = world
        u1 = usigs[0].create_ui("m1")
        usigs[1].verify_ui(u1, "m1")
        with pytest.raises(EnclaveAbort, match="replay"):
            usigs[1].verify_ui(u1, "m1")
        # ...even in the gap-tolerant mode used by MinBFT's commit path.
        with pytest.raises(EnclaveAbort, match="replay"):
            usigs[1].verify_ui(u1, "m1", allow_gaps=True)

    def test_allow_gaps_tolerates_skips_but_not_reuse(self, world):
        _, _, usigs = world
        usigs[0].create_ui("m1")
        u2 = usigs[0].create_ui("m2")
        u3 = usigs[0].create_ui("m3")
        assert usigs[1].verify_ui(u2, "m2", allow_gaps=True)  # skipped m1
        assert usigs[1].verify_ui(u3, "m3", allow_gaps=True)
        with pytest.raises(EnclaveAbort, match="replay"):
            usigs[1].verify_ui(u2, "m2", allow_gaps=True)

    def test_wrong_message_binding_rejected(self, world):
        _, _, usigs = world
        u1 = usigs[0].create_ui("m1")
        with pytest.raises(EnclaveAbort, match="different message"):
            usigs[1].verify_ui(u1, "other")

    def test_no_equivocation_possible(self, world):
        """Two different messages can never share a counter value — the
        defining property of TrInc-style counters."""
        _, _, usigs = world
        seen: dict[int, str] = {}
        for i in range(10):
            ui = usigs[0].create_ui(f"msg-{i}")
            assert ui.counter not in seen
            seen[ui.counter] = ui.message_digest

    def test_forged_ui_rejected(self, world):
        pairs, ring, usigs = world
        from dataclasses import replace

        genuine = usigs[0].create_ui("m1")
        forged = replace(genuine, counter=5)
        with pytest.raises(EnclaveAbort, match="invalid UI"):
            usigs[1].verify_ui(forged, "m1")


class TestRollbackSemantics:
    def test_virtual_counter_resets_on_reboot(self, world):
        """Without a persistent counter the USIG counter is 'virtual': a
        reboot resets it and equivocation becomes possible — the exact
        hazard of paper Sec. 2.1."""
        _, _, usigs = world
        u = usigs[0]
        first = u.create_ui("honest")
        u.reboot()
        u.restart(N - 1)
        second = u.create_ui("evil")
        assert first.counter == second.counter == 1
        assert first.message_digest != second.message_digest  # equivocation!

    def test_persistent_counter_detects_stale_restore(self, world):
        pairs, ring, _ = world
        u = Usig(node_id=0, private_key=pairs[0].private, keyring=ring,
                 counter=ConfigurableCounter(20.0))
        u.create_ui("m1")
        u.create_ui("m2")
        attacker = RollbackAttacker(store=u.store)
        attacker.serve_oldest(f"{u.identity}/rstate")
        u.reboot()
        u.restart(N - 1)
        with pytest.raises(EnclaveAbort, match="rollback detected"):
            u.tee_restore(attacker.unseal_for(u, "rstate"))

    def test_fresh_restore_resumes_counter(self, world):
        pairs, ring, _ = world
        u = Usig(node_id=0, private_key=pairs[0].private, keyring=ring,
                 counter=ConfigurableCounter(20.0))
        u.create_ui("m1")
        u.create_ui("m2")
        fresh = u.unseal_state("rstate")
        u.reboot()
        u.restart(N - 1)
        assert u.tee_restore(fresh)
        third = u.create_ui("m3")
        assert third.counter == 3  # no reuse of values 1 and 2

    def test_live_usig_refuses_a_restore(self, world):
        """A USIG that never rebooted has nothing to restore: the host
        cannot overwrite its counter and gapless marks with a sealed
        state of its choosing."""
        pairs, ring, usigs = world
        u = Usig(node_id=0, private_key=pairs[0].private, keyring=ring,
                 counter=ConfigurableCounter(20.0))
        u.create_ui("m1")
        older = u.unseal_state("rstate")
        u.verify_ui(usigs[1].create_ui("x"), "x")
        u.create_ui("m2")
        with pytest.raises(EnclaveAbort, match="does not need restoration"):
            u.tee_restore(older)
        assert (u.counter_value, u.last_seen) == (2, {1: 1})
        with pytest.raises(EnclaveAbort, match="does not need restoration"):
            u.tee_restore(None)

    def test_counter_write_cost_charged(self, world):
        pairs, ring, _ = world
        u = Usig(node_id=0, private_key=pairs[0].private, keyring=ring,
                 counter=ConfigurableCounter(20.0))
        u.create_ui("m1")
        assert u.drain_cost() >= 20.0
        # verify_ui is read-only: no counter write.
        w = Usig(node_id=2, private_key=pairs[2].private, keyring=ring)
        v = Usig(node_id=1, private_key=pairs[1].private, keyring=ring,
                 counter=ConfigurableCounter(20.0))
        genuine = w.create_ui("m2")
        v.verify_ui(genuine, "m2")
        assert v.counter_writes == 0
