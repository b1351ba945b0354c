"""Experiment runner and the one deployment assembly.

:func:`run_experiment` builds a cluster for any registered protocol, runs a
measured window on a saturated (or open-loop) workload, checks safety, and
returns an :class:`ExperimentResult` with the paper's metrics.

The ``PROTOCOLS`` registry maps the names used throughout the benchmarks —
``achilles``, ``achilles-c``, ``damysus``, ``damysus-r``, ``oneshot``,
``oneshot-r``, ``flexibft``, ``braft`` — to (node class, committee shape,
counter wiring) descriptors.  Baselines register themselves on import.

Every runner — :func:`run_experiment`, the chaos, soak, power-cut and
shard-chaos campaigns, :class:`~repro.shard.deployment.ShardedDeployment` —
turns "protocol P at fault bound f on network N, ``-R`` counter at c ms"
into a running cluster through the functions below
(:func:`resolve_protocol`, :func:`resolve_network`, :func:`protocol_config`,
:func:`build_deployment`), and turns its violations into a pass/fail list
through :func:`verdict`.

Every campaign kind keeps one contract: ``run_<kind>(spec, seed)``
returns a :class:`CampaignResult` subclass, its deployment is
:func:`campaign_config` of its spec, and the parallel harness runs it
from the config ``{"spec": spec, "seed": seed}``.  A kind adds a spec, a
fault installer, engagement checks, digest fields and a result subclass;
it never assembles a cluster or writes a worker wrapper of its own.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Iterable, Optional

from repro.client.workload import OpenLoopGenerator, QueueSource, SaturatedSource
from repro.consensus.cluster import Cluster, build_cluster
from repro.consensus.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.harness.invariants import InvariantViolation
from repro.harness.metrics import MetricsCollector
from repro.net.latency import LAN_PROFILE, WAN_PROFILE, LatencyProfile
from repro.tee.counters import ConfigurableCounter
from repro.tee.enclave import EnclaveProfile

#: Persistent-counter write latency of the paper's Fig. 3 setting: what
#: ``run_experiment`` defaults to and what sharded ``-R`` deployments use.
DEFAULT_COUNTER_WRITE_MS = 20.0


@dataclass(frozen=True)
class ProtocolSpec:
    """Registry entry describing how to deploy one protocol."""

    name: str
    node_cls: type
    #: committee shape: n as a function of f
    committee: Callable[[int], int]
    #: does this variant wire a persistent counter into its TEE components?
    uses_counter: bool = False
    #: trusted components outside the enclave (Achilles-C, BRaft)?
    outside_tee: bool = False


PROTOCOLS: dict[str, ProtocolSpec] = {}


def register_protocol(spec: ProtocolSpec) -> None:
    """Add a protocol to the registry (idempotent by name)."""
    PROTOCOLS[spec.name] = spec


def _ensure_registered() -> None:
    # Importing the packages runs their registration side effects.
    import repro.core.registry  # noqa: F401
    import repro.baselines  # noqa: F401


# ----------------------------------------------------------------------
# Deployment assembly
# ----------------------------------------------------------------------
def resolve_protocol(name: str) -> ProtocolSpec:
    """The registry entry for ``name``."""
    _ensure_registered()
    spec = PROTOCOLS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}"
        )
    return spec


def resolve_network(name: str) -> LatencyProfile:
    """The latency profile called ``name`` (``LAN`` or ``WAN``)."""
    latency = {"LAN": LAN_PROFILE, "WAN": WAN_PROFILE}.get(name.upper())
    if latency is None:
        raise ConfigurationError(f"unknown network {name!r} (LAN or WAN)")
    return latency


def protocol_config(
    spec: ProtocolSpec,
    f: int,
    seed: int,
    *,
    counter_write_ms: float,
    snapshot_interval: Optional[int] = None,
    snapshot_retain: int = 12,
    snapshot_trust_sealed: bool = False,
    **fields: Any,
) -> ProtocolConfig:
    """The :class:`ProtocolConfig` of one deployment of ``spec``.

    Decides what the registry entry decides: committee size, whether the
    trusted components get a persistent counter (``-R`` variants, at
    ``counter_write_ms`` per write) and whether they run inside the
    enclave.  ``fields`` are passed through unchanged.
    """
    counter_factory = None
    if spec.uses_counter and counter_write_ms > 0:
        counter_factory = lambda: ConfigurableCounter(counter_write_ms)  # noqa: E731
    if snapshot_interval:
        # The snapshot layer is a pure function of the spec: off, it adds
        # no config field at all, so non-snapshot runs stay bit-identical
        # to the pre-snapshot baseline.
        fields.update(
            snapshots=True,
            checkpoint_interval=snapshot_interval,
            checkpoint_retain=snapshot_retain,
            snapshot_trust_sealed=snapshot_trust_sealed,
        )
    return ProtocolConfig(
        n=spec.committee(f),
        f=f,
        counter_factory=counter_factory,
        enclave=EnclaveProfile.outside_tee() if spec.outside_tee else EnclaveProfile(),
        seed=seed,
        **fields,
    )


#: The deployment fields a campaign spec may declare: every
#: :class:`ProtocolConfig` field but the committee's, plus the keywords
#: :func:`protocol_config` maps itself.
_DEPLOYMENT_FIELDS = frozenset(
    set(ProtocolConfig.__dataclass_fields__) - {"n", "f", "seed"}
    | {"counter_write_ms", "snapshot_interval", "snapshot_retain"})


def campaign_config(protocol: ProtocolSpec, spec, seed: int,
                    **overrides: Any) -> ProtocolConfig:
    """The :class:`ProtocolConfig` of one campaign of ``spec``: every
    deployment field the spec declares (batch size, timeouts, counter
    write latency, snapshots, ...), then ``overrides``."""
    declared = {name: value for name, value in vars(spec).items()
                if name in _DEPLOYMENT_FIELDS}
    return protocol_config(protocol, spec.f, seed, **declared | overrides)


def committed_tips(nodes: Iterable) -> list[tuple[int, str]]:
    """(height, hash) of every replica's committed tip — the chain part of
    every campaign result digest."""
    return [(node.store.committed_tip.height, node.store.committed_tip.hash)
            for node in nodes]


@dataclass
class Deployment:
    """A built, instrumented single-group cluster and its traffic source."""

    cluster: Cluster
    #: The open-loop generator feeding the mempool; ``None`` when saturated.
    generator: Any = None

    def run(self, duration_ms: float) -> None:
        """Start traffic and replicas, then advance ``duration_ms``."""
        if self.generator is not None:
            self.generator.start()
        self.cluster.start()
        self.cluster.run(duration_ms)

    def audit(self, monitor) -> None:
        """End-of-run checks: the monitor's own, then the whole-chain
        safety comparison as belt and braces over the live monitor — a
        divergence it missed becomes one ``agreement`` violation."""
        monitor.finalize()
        try:
            self.cluster.assert_safety()
        except AssertionError as exc:
            monitor.violations.append(InvariantViolation(
                "agreement", self.cluster.sim.now, None, str(exc)))

    def write_trace(self, path: str, label: str) -> None:
        """Write the run's span trace as Perfetto/Chrome JSON."""
        from repro.obs.perfetto import write_perfetto

        tracer = self.cluster.sim.obs
        tracer.flush_open_phases(self.cluster.sim.now)
        write_perfetto(tracer, path, label=label)


def poisson_arrivals(rate_tps: float, payload_size: int,
                     latency: LatencyProfile, kv_keys: int = 0) -> Callable:
    """An ``open_loop`` for :func:`build_deployment`: Poisson arrivals at
    ``rate_tps`` into an unbounded mempool queue, created one client hop
    away (``kv_keys`` > 0 makes the payloads KV writes)."""
    def open_loop(sim):
        queue = QueueSource()
        return queue, OpenLoopGenerator(
            sim, queue, rate_tps=rate_tps, payload_size=payload_size,
            client_one_way_ms=latency.one_way_ms, kv_keys=kv_keys,
        )
    return open_loop


def build_deployment(
    spec: ProtocolSpec,
    config: ProtocolConfig,
    latency: LatencyProfile,
    seed: int,
    *,
    listener,
    open_loop: Optional[Callable] = None,
    poll_every_ms: Optional[float] = None,
    trace: bool = False,
    **cluster_kwargs: Any,
) -> Deployment:
    """Assemble one cluster of ``spec`` and wire its instrumentation.

    The mempool is a saturated source unless ``open_loop(sim)`` is given;
    it returns ``(queue, generator)`` and the generator is started by
    :meth:`Deployment.run`.  With ``poll_every_ms`` the ``listener`` is an
    :class:`~repro.harness.invariants.InvariantMonitor` and is attached
    to the cluster, polling that often.  ``trace`` turns on
    :mod:`repro.obs` span tracing, which never changes simulation
    outcomes.  ``cluster_kwargs`` go to :func:`build_cluster` (adversary,
    faults, transport, byzantine_factories).
    """
    generator = None

    def source_factory(sim):
        nonlocal generator
        if open_loop is None:
            return SaturatedSource(sim, payload_size=config.payload_size,
                                   client_one_way_ms=latency.one_way_ms)
        queue, generator = open_loop(sim)
        return queue

    cluster = build_cluster(
        node_factory=spec.node_cls,
        config=config,
        latency=latency,
        source_factory=source_factory,
        listener=listener,
        seed=seed,
        **cluster_kwargs,
    )
    cluster.sim.obs.enabled = trace
    if poll_every_ms is not None:
        listener.attach(cluster, poll_every_ms=poll_every_ms)
    return Deployment(cluster, generator)


def verdict(violations: list, expected: Iterable[str], missing_means: str,
            extras: Optional[dict] = None) -> list[str]:
    """What fails the run, as strings (they feed the result digests).

    With nothing ``expected``, every violation.  In negative-control mode
    the ``expected`` invariants must trip: everything else still fails
    the run, and so does an expected one that never tripped — a control
    whose attack did not demonstrably land proves nothing.
    ``missing_means`` words that line per campaign kind; ``extras``, when
    given, records the expected invariants that did trip under
    ``expected_tripped``.
    """
    if not expected:
        return [str(v) for v in violations]
    tripped = sorted(set(expected) & {v.invariant for v in violations})
    if extras is not None:
        extras["expected_tripped"] = tripped
    return [str(v) for v in violations if v.invariant not in expected] + [
        f"[expected-violation-missing] negative control {name!r} "
        f"never tripped {missing_means}"
        for name in expected if name not in tripped
    ]


@dataclass(kw_only=True)
class CampaignResult:
    """What every campaign kind returns for one ``(spec, seed)``: the
    fields the parallel harness, the result cache and the CLI read.  A
    kind subclasses it with its own fields only.  ``digest`` summarizes
    the run's observable state: identical seeds give identical digests.
    """

    protocol: str
    f: int
    #: committee size (per shard, for sharded kinds)
    n: int
    network: str
    seed: int
    violations: list[str] = field(default_factory=list)
    sim_events: int = 0
    digest: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True iff nothing (invariant, gate, engagement) failed."""
        return not self.violations


def from_json(record_type: type, data: dict):
    """A result record back from its :func:`dataclasses.asdict` JSON: a
    field typed ``list[<record>]`` (power-cut outcomes, soak health
    windows) gets its records back, not dicts."""
    hints = typing.get_type_hints(record_type)
    for item in fields(record_type):
        args = typing.get_args(hints[item.name])
        if item.name in data and len(args) == 1 and is_dataclass(args[0]):
            data[item.name] = [args[0](**value) for value in data[item.name]]
    return record_type(**data)


@dataclass
class ExperimentResult:
    """One experiment's outcome."""

    protocol: str
    f: int
    n: int
    network: str
    batch_size: int
    payload_size: int
    counter_write_ms: float
    throughput_ktps: float
    commit_latency_ms: float
    commit_latency_p99_ms: float
    e2e_latency_ms: float
    txs_committed: int
    blocks_committed: int
    messages_sent: int
    bytes_sent: int
    sim_events: int
    extras: dict = field(default_factory=dict)

    def row(self) -> list:
        """The row most benchmark tables print."""
        return [
            self.protocol, self.f, self.n, self.throughput_ktps,
            self.commit_latency_ms, self.e2e_latency_ms,
        ]


def run_experiment(
    protocol: str,
    f: int,
    network: str = "LAN",
    batch_size: int = 400,
    payload_size: int = 256,
    counter_write_ms: float = DEFAULT_COUNTER_WRITE_MS,
    duration_ms: float = 1500.0,
    warmup_ms: float = 300.0,
    seed: int = 1,
    offered_load_tps: Optional[float] = None,
    config_overrides: Optional[dict] = None,
    trace: bool = False,
    trace_path: Optional[str] = None,
) -> ExperimentResult:
    """Run one measured experiment and return its metrics.

    ``offered_load_tps`` switches from the saturated workload to an
    open-loop Poisson workload at that rate (Fig. 4); the default measures
    peak throughput.

    ``trace=True`` turns on :mod:`repro.obs` span tracing for the run:
    the result's ``extras`` gains the critical-path cost breakdown
    (``cp_<bucket>_ms`` per bucket, ``trace_coverage``, ``trace_digest``,
    ``trace_spans``), and ``trace_path`` additionally writes the full
    Perfetto/Chrome trace JSON there.  Tracing never changes simulation
    outcomes — metrics are identical with it on or off.
    """
    spec = resolve_protocol(protocol)
    latency = resolve_network(network)
    config = protocol_config(
        spec, f, seed,
        counter_write_ms=counter_write_ms,
        batch_size=batch_size,
        payload_size=payload_size,
        **(config_overrides or {}),
    )

    client_hop = latency.one_way_ms
    collector = MetricsCollector(warmup_ms=warmup_ms, reply_one_way_ms=client_hop)

    deployment = build_deployment(
        spec, config, latency, seed,
        listener=collector,
        open_loop=None if offered_load_tps is None else poisson_arrivals(
            offered_load_tps, payload_size, latency),
        trace=bool(trace or trace_path),
    )
    cluster = deployment.cluster
    deployment.run(duration_ms)
    cluster.assert_safety()

    extras: dict = {}
    if trace or trace_path:
        from repro.obs.critical_path import critical_path_report

        tracer = cluster.sim.obs
        tracer.flush_open_phases(cluster.sim.now)
        breakdown = critical_path_report(tracer, warmup_ms=warmup_ms)
        for bucket, ms in breakdown.buckets_ms.items():
            extras[f"cp_{bucket}_ms"] = ms
        extras["trace_coverage"] = breakdown.coverage
        extras["trace_blocks_walked"] = breakdown.walked
        extras["trace_spans"] = len(tracer.spans)
        extras["trace_digest"] = tracer.digest()
        if trace_path:
            deployment.write_trace(
                trace_path, f"{protocol}/f={f}/{network.upper()}/seed={seed}")

    return ExperimentResult(
        protocol=protocol,
        f=f,
        n=config.n,
        network=network.upper(),
        batch_size=batch_size,
        payload_size=payload_size,
        counter_write_ms=counter_write_ms if spec.uses_counter else 0.0,
        throughput_ktps=collector.throughput_ktps(measured_until=duration_ms),
        commit_latency_ms=collector.commit_latency.mean,
        commit_latency_p99_ms=collector.commit_latency.p99,
        e2e_latency_ms=collector.e2e_latency.mean,
        txs_committed=collector.txs_committed,
        blocks_committed=collector.blocks_committed,
        messages_sent=cluster.network.stats.messages_sent,
        bytes_sent=cluster.network.stats.bytes_sent,
        sim_events=cluster.sim.events_processed,
        extras=extras,
    )


__all__ = [
    "ProtocolSpec",
    "PROTOCOLS",
    "register_protocol",
    "DEFAULT_COUNTER_WRITE_MS",
    "resolve_protocol",
    "resolve_network",
    "protocol_config",
    "campaign_config",
    "Deployment",
    "build_deployment",
    "poisson_arrivals",
    "committed_tips",
    "verdict",
    "CampaignResult",
    "from_json",
    "ExperimentResult",
    "run_experiment",
]
