"""Shard-aware chaos campaigns.

One seeded campaign = a sharded deployment under cross-shard 2PC traffic
with a *whole shard* crashed or client-partitioned mid-flight, then
rebooted/healed before a quiesce window in which every transaction must
converge — committed everywhere, aborted everywhere, or TTL-expired —
and the ``cross-shard-atomicity`` audit plus every per-shard invariant
monitor must pass.

Determinism mirrors :mod:`repro.faults.chaos`: the victim shard and the
fault window are pure functions of ``(spec, seed)``, engagement is
checked (a campaign whose fault did not land mid-2PC proves nothing),
and negative controls run with ``expect_violations`` — the expected
invariant MUST trip and nothing else may.  The canonical control sets
``txn_ttl_blocks=None`` (participant timeout→abort off) so the crashed
window wedges participant locks, which the atomicity audit reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Optional

from repro.client.workload import ShardedOpenLoopGenerator
from repro.crypto.hashing import digest_of
from repro.errors import ConfigurationError
from repro.harness.invariants import InvariantViolation
from repro.harness.runner import committed_tips, spec_from_config, verdict
from repro.shard.deployment import ShardedDeployment


@dataclass(frozen=True)
class ShardChaosSpec:
    """One shard campaign configuration (seed-independent)."""

    protocol: str = "achilles"
    f: int = 1
    shards: int = 2
    network: str = "LAN"
    #: Long enough for the full arc: fault lands a third in, the victim
    #: is down past the manager's bounded abort retries (so the lock TTL
    #: backstop is what actually unwedges it), then ~1500 post-recovery
    #: blocks for that expiry, then a fault-free tail.
    duration_ms: float = 12000.0
    warmup_ms: float = 300.0
    #: Fault-free tail: cross-shard initiation stops here and every
    #: in-flight 2PC must fully resolve before the end-of-run audit.
    quiesce_ms: float = 2500.0
    #: Offered load per shard (single-shard writes + cross-shard txns).
    rate_tps: float = 1500.0
    #: Fraction of arrivals that are cross-shard transactions.
    cross_fraction: float = 0.25
    keys_per_shard: int = 32
    batch_size: int = 50
    payload_size: int = 64
    base_timeout_ms: float = 500.0
    #: Participant lock TTL in the shard's own committed blocks;
    #: ``None`` disables the timeout→abort defense (negative controls).
    txn_ttl_blocks: Optional[int] = 1500
    #: "crash" (whole shard down, rebooted), "partition" (shard isolated
    #: from the router, healed), or "none".
    fault: str = "crash"
    fault_at_ms: Optional[float] = None
    #: Longer than the router's full retry budget (~3 s), so abort
    #: dissemination to the victim exhausts while it is down and only
    #: the TTL defense (or nothing, in negative controls) unwedges it.
    downtime_ms: float = 3800.0
    poll_every_ms: float = 25.0
    #: Negative-control mode: these invariants MUST trip; anything else
    #: tripping — or an expected one not tripping — fails the run.
    expect_violations: tuple = field(default=())

    #: ``repro shard-chaos`` flags: field → (flag, help[, argparse
    #: overrides]).  Type and default come from the field itself.
    CLI: ClassVar[dict] = {
        "protocol": ("--protocol", None),
        "shards": ("--shards", None),
        "fault": ("--fault", None,
                  {"choices": ["crash", "partition", "none"]}),
        "duration_ms": ("--duration", None),
        "quiesce_ms": ("--quiesce", None),
        "downtime_ms": ("--downtime",
                        "how long the victim shard stays down (ms)"),
        "rate_tps": ("--rate", "offered load per shard (TPS)"),
        "cross_fraction": ("--cross-fraction", None),
        "txn_ttl_blocks": ("--ttl-blocks",
                           "participant lock TTL in committed blocks"),
        "expect_violations": (
            "--expect",
            "negative control: these invariants MUST trip; anything else "
            "failing still fails", {"metavar": "INV[,INV]"}),
    }

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError("need at least one shard")
        if self.fault not in ("crash", "partition", "none"):
            raise ConfigurationError(f"unknown fault kind {self.fault!r}")
        if self.quiesce_ms >= self.duration_ms:
            raise ConfigurationError("quiesce window swallows the whole run")
        if self.cross_fraction > 0 and self.shards < 2:
            raise ConfigurationError("cross-shard traffic needs >= 2 shards")
        if self.fault != "none":
            end = self.fault_at + self.downtime_ms
            if end > self.duration_ms - self.quiesce_ms:
                raise ConfigurationError(
                    "the fault window must end before quiesce starts "
                    f"(ends {end}, quiesce at "
                    f"{self.duration_ms - self.quiesce_ms})")

    @property
    def fault_at(self) -> float:
        """When the fault lands (default: a third into the run)."""
        if self.fault_at_ms is not None:
            return self.fault_at_ms
        return self.duration_ms / 3.0


@dataclass(frozen=True)
class ShardChaosResult:
    """Deterministic outcome of one seeded shard campaign."""

    protocol: str
    shards: int
    f: int
    #: committee size *per shard* (the parallel harness reports it)
    n: int
    network: str
    seed: int
    fault: str
    victim: Optional[int]
    committed_txns: int
    aborted_txns: int
    commit_rejects: int
    in_flight_at_fault: int
    txs_committed: int
    violations: "list[str]"
    sim_events: int
    digest: str
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Did the campaign pass (no unexpected violations)?"""
        return not self.violations


def run_shard_chaos(spec: ShardChaosSpec, seed: int) -> ShardChaosResult:
    """Run one seeded shard campaign and return its result."""
    victim: Optional[int] = None
    if spec.fault != "none":
        # Victim choice on its own stream: adding fault kinds later must
        # not perturb the traffic RNG.
        victim = random.Random(f"shard-chaos/{seed}").randrange(spec.shards)

    deployment = ShardedDeployment(
        protocol=spec.protocol, shards=spec.shards, f=spec.f, seed=seed,
        network=spec.network, batch_size=spec.batch_size,
        payload_size=spec.payload_size, base_timeout_ms=spec.base_timeout_ms,
        txn_ttl_blocks=spec.txn_ttl_blocks, warmup_ms=spec.warmup_ms,
        poll_every_ms=spec.poll_every_ms,
    )
    generator = ShardedOpenLoopGenerator(
        deployment.sim, deployment.router, deployment.txns,
        rate_tps=spec.rate_tps, cross_fraction=spec.cross_fraction,
        keys_per_shard=spec.keys_per_shard, payload_size=spec.payload_size,
    )

    sim = deployment.sim
    in_flight_at_fault = {"count": 0}
    if victim is not None:
        def strike() -> None:
            in_flight_at_fault["count"] = \
                deployment.txns.in_flight_involving(victim)
            if spec.fault == "crash":
                deployment.crash_shard(victim)
            else:
                deployment.partition_shard(victim)

        def recover() -> None:
            if spec.fault == "crash":
                deployment.reboot_shard(victim)
            else:
                deployment.heal_shard(victim)

        sim.schedule_at(spec.fault_at, strike, label="shard-chaos.fault")
        sim.schedule_at(spec.fault_at + spec.downtime_ms, recover,
                        label="shard-chaos.recover")

    quiesce_at = spec.duration_ms - spec.quiesce_ms

    def quiesce() -> None:
        generator.stop_cross()
        deployment.mark_quiesced()

    sim.schedule_at(quiesce_at, quiesce, label="shard-chaos.quiesce")

    generator.start()
    deployment.start()
    deployment.run(spec.duration_ms)

    # Finalizes every per-shard monitor, then audits atomicity.
    all_violations: list[InvariantViolation] = deployment.all_violations()
    for s, cluster in enumerate(deployment.clusters):
        try:
            cluster.assert_safety()
        except AssertionError as exc:
            all_violations.append(InvariantViolation(
                "agreement", sim.now, None, f"shard {s}: {exc}"))

    # Engagement: a campaign that never exercised cross-shard 2PC — or
    # whose fault landed with nothing in flight — proves nothing.
    engagement: list[str] = []
    if spec.cross_fraction > 0 and generator.txns_issued == 0:
        engagement.append("[shard-engagement] no cross-shard transaction "
                          "was ever initiated")
    if spec.cross_fraction > 0 and deployment.txns.committed == 0:
        engagement.append("[shard-engagement] no cross-shard transaction "
                          "ever committed (2PC commit path unexercised)")
    if victim is not None and in_flight_at_fault["count"] == 0:
        engagement.append(
            f"[shard-engagement] the {spec.fault} of shard {victim} landed "
            f"with zero transactions in flight — not mid-2PC")

    violations = verdict(all_violations, sorted(set(spec.expect_violations)),
                         "— the scenario did not land") + engagement

    digest = digest_of(
        "shard-chaos-result", spec.protocol, spec.shards, spec.f,
        spec.fault, seed,
        committed_tips(node for cluster in deployment.clusters
                       for node in cluster.nodes),
        violations, sim.events_processed,
    )

    summary = deployment.summary()
    extras = {
        "writes_issued": generator.writes_issued,
        "txns_issued": generator.txns_issued,
        "router_failures": deployment.router.failures,
        "router_retransmissions": deployment.router.retransmissions,
        "router_duplicate_replies": deployment.router.duplicate_replies,
        "expired_prepares": sum(
            m.expired for s in range(deployment.n_shards)
            for m in deployment.shard_machines(s)[:1]),
        "late_commit_rejects": sum(
            m.late_commit_rejects for s in range(deployment.n_shards)
            for m in deployment.shard_machines(s)[:1]),
        "shard_heights": [c.max_committed_height()
                          for c in deployment.clusters],
        "e2e_p50_ms": summary["e2e_latency_p50_ms"],
        "e2e_p99_ms": summary["e2e_latency_p99_ms"],
        "e2e_p999_ms": summary["e2e_latency_p999_ms"],
    }
    if spec.expect_violations:
        extras["expected_tripped"] = sorted(
            set(spec.expect_violations)
            & {v.invariant for v in all_violations})

    return ShardChaosResult(
        protocol=spec.protocol,
        shards=spec.shards,
        f=spec.f,
        n=len(deployment.clusters[0].nodes),
        network=spec.network,
        seed=seed,
        fault=spec.fault,
        victim=victim,
        committed_txns=deployment.txns.committed,
        aborted_txns=deployment.txns.aborted,
        commit_rejects=deployment.txns.commit_rejects,
        in_flight_at_fault=in_flight_at_fault["count"],
        txs_committed=summary["txs_committed"],
        violations=violations,
        sim_events=sim.events_processed,
        digest=digest,
        extras=extras,
    )


def run_shard_chaos_seed(config: Mapping) -> ShardChaosResult:
    """Worker entry point (module-level so the parallel harness pickles
    it): one config mapping → one :class:`ShardChaosResult`."""
    return run_shard_chaos(
        spec_from_config(ShardChaosSpec, config, "shard chaos"),
        seed=int(config.get("seed", 0)))


__all__ = ["ShardChaosSpec", "ShardChaosResult", "run_shard_chaos",
           "run_shard_chaos_seed"]
