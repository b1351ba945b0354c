#!/usr/bin/env python3
"""The rollback attack, three ways (the paper's Sec. 2.1 vs Sec. 4.5).

1. **Plain Damysus** — the OS serves the checker a stale sealed snapshot
   after a reboot; the checker cannot tell and re-certifies a view it
   already certified (equivocation: the failure mode that breaks BFT
   safety with n = 2f+1).
2. **Damysus-R** — a persistent counter detects the stale snapshot, but
   every hot-path ECALL paid a 20 ms counter write for that privilege.
3. **Achilles** — nothing consensus-critical is ever sealed.  The victim
   recovers from f+1 peers (Algorithm 3), rejoins two views ahead of
   anything it might have signed, and the storage attack has no surface.

Run:  python examples/rollback_attack_demo.py
"""

from __future__ import annotations

from repro.baselines.damysus.checker import DamysusChecker
from repro.crypto.keys import Keyring, generate_keypairs
from repro.errors import EnclaveAbort
from repro.tee.counters import ConfigurableCounter
from repro.tee.rollback import RollbackAttacker

N, F = 5, 2


def build_checker(counter=None):
    pairs = generate_keypairs(range(N), seed=1)
    ring = Keyring.from_keypairs(pairs)
    return DamysusChecker(node_id=2, n=N, f=F, private_key=pairs[2].private,
                          keyring=ring, counter=counter)


def attack_plain_damysus() -> None:
    print("— plain Damysus (no rollback prevention) " + "—" * 20)
    checker = build_checker()
    checker.tee_new_view()                           # certifies view 1
    checker.state.prepv, checker.state.preph = 1, "block-A"
    original = checker.tee_new_view()                # certifies view 2

    attacker = RollbackAttacker(store=checker.store)
    attacker.serve_oldest(f"{checker.identity}/rstate")
    checker.reboot()
    checker.restart(N - 1)
    checker.tee_restore(attacker.unseal_for(checker, "rstate"))
    print(f"  checker resumed at view {checker.state.vi} "
          f"(it had already certified view 2!)")
    second = checker.tee_new_view()
    assert second.current_view == original.current_view
    assert second.block_hash != original.block_hash
    print(f"  re-certified view {second.current_view} with different "
          f"contents → EQUIVOCATION (reported block {original.block_hash[:8]} "
          f"before, {second.block_hash[:8]} after)")


def attack_damysus_r() -> None:
    print("— Damysus-R (persistent counter, 20 ms writes) " + "—" * 14)
    checker = build_checker(counter=ConfigurableCounter(20.0))
    checker.tee_new_view()
    hot_path_cost = checker.drain_cost()
    checker.tee_new_view()
    checker.drain_cost()

    attacker = RollbackAttacker(store=checker.store)
    attacker.serve_oldest(f"{checker.identity}/rstate")
    checker.reboot()
    checker.restart(N - 1)
    try:
        checker.tee_restore(attacker.unseal_for(checker, "rstate"))
        print("  !!! stale state accepted — should not happen")
    except EnclaveAbort as exc:
        print(f"  attack detected: {exc.reason}")
    print(f"  ...but every normal-case ECALL had cost ≥ {hot_path_cost:.1f} ms "
          f"(the counter write)")


def achilles_has_no_attack_surface() -> None:
    print("— Achilles (rollback-resilient recovery) " + "—" * 19)
    from repro import MetricsCollector, ProtocolConfig, SaturatedSource, \
        build_achilles_cluster
    from repro.faults.scenarios import crash_and_reboot
    from repro.net.latency import LAN_PROFILE

    config = ProtocolConfig.tee_committee(f=F, batch_size=50, payload_size=64,
                                      base_timeout_ms=60.0)
    collector = MetricsCollector()
    cluster = build_achilles_cluster(
        f=F, latency=LAN_PROFILE, config=config,
        source_factory=lambda sim: SaturatedSource(sim, payload_size=64),
        listener=collector, seed=3,
    )
    victim = cluster.nodes[2]
    attacker = RollbackAttacker(store=victim.checker.store)
    attacker.serve_nothing(f"{victim.checker.identity}/rstate")

    crash_and_reboot(cluster, node_id=2, at_ms=100.0, downtime_ms=10.0)
    cluster.start()
    cluster.run(900.0)
    cluster.assert_safety()

    episode = victim.recovery_episodes[0]
    print(f"  victim sealed to disk: {victim.checker.store.names() or 'nothing'}")
    print(f"  storage attacks that mattered: {attacker.attacks_mounted}")
    print(f"  recovered from peers in {episode.total_ms:.1f} ms "
          f"(init {episode.init_ms:.1f} + protocol {episode.protocol_ms:.2f})")
    print(f"  committee throughput while victim recovered: "
          f"{collector.throughput_ktps():.1f} KTPS, safety intact")


def main() -> None:
    attack_plain_damysus()
    print()
    attack_damysus_r()
    print()
    achilles_has_no_attack_surface()


if __name__ == "__main__":
    main()
