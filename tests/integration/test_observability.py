"""End-to-end tests of :mod:`repro.obs` on real protocol runs.

The acceptance bar for the subsystem:

* span structure is sound (begin/end pairing, parent links resolve to the
  right span kinds across nodes);
* the critical-path walk attributes ≥95 % of mean commit latency on the
  Fig. 3 LAN smoke configuration — and the Damysus-R breakdown is
  dominated by persistent-counter writes while Achilles pays none
  (the paper's Table 4 contrast);
* the Perfetto export passes schema validation;
* traces are a pure function of (spec, seed): identical runs produce
  byte-identical trace digests;
* tracing never changes simulation outcomes.
"""

from __future__ import annotations

import pytest

from repro.client.workload import SaturatedSource
from repro.core.protocol import build_achilles_cluster
from repro.harness.metrics import MetricsCollector
from repro.harness.runner import run_experiment
from repro.net.latency import LAN_PROFILE
from repro.obs.critical_path import critical_path_report
from repro.obs.perfetto import to_perfetto, validate_trace
from tests.conftest import fast_config


def _traced_cluster(duration_ms: float = 300.0, f: int = 1, seed: int = 7):
    """A small traced Achilles run returning (cluster, collector)."""
    config = fast_config(f=f, seed=seed)
    collector = MetricsCollector(warmup_ms=0.0)
    cluster = build_achilles_cluster(
        f=f, latency=LAN_PROFILE, config=config,
        source_factory=lambda sim: SaturatedSource(sim, payload_size=32),
        listener=collector, seed=seed,
    )
    cluster.sim.obs.enabled = True
    cluster.start()
    cluster.run(duration_ms)
    cluster.assert_safety()
    return cluster, collector


class TestSpanStructure:
    def test_work_spans_well_formed(self):
        cluster, _ = _traced_cluster()
        tracer = cluster.sim.obs
        work = [s for s in tracer.spans if s.kind == "work"]
        assert work, "a live run must produce work spans"
        eps = 1e-6  # cpu_start is reconstructed as finish − cost: 1-ulp slack
        for span in work:
            assert span.attrs["arrival"] <= span.t0 + eps
            assert span.t0 <= span.attrs["cpu_start"] + eps
            assert span.attrs["cpu_start"] <= span.t1 + eps
            for kind, name, cost in span.parts:
                assert cost >= 0.0 and isinstance(name, str)

    def test_parent_links_alternate_work_and_net(self):
        cluster, _ = _traced_cluster()
        tracer = cluster.sim.obs
        resolved = 0
        for span in tracer.spans:
            if span.parent is None:
                continue
            parent = tracer.get(span.parent)
            if parent is None:
                continue  # evicted/undelivered: allowed, just unwalkable
            if span.kind == "work":
                assert parent.kind == "net"
                assert parent.attrs["dst"] == span.node
            elif span.kind == "net":
                assert parent.kind == "work"
                assert parent.node == span.node  # sender's work span
            resolved += 1
        assert resolved > 0

    def test_net_spans_point_forward_in_time(self):
        cluster, _ = _traced_cluster()
        tracer = cluster.sim.obs
        for span in tracer.spans:
            if span.kind != "net":
                continue
            assert span.t1 >= span.t0
            parent = tracer.get(span.parent)
            if parent is not None:
                # transmit happens inside or at the end of the sender's
                # CPU window, never before its dispatch
                assert span.t0 >= parent.t0

    def test_every_committed_block_has_anchors(self):
        cluster, collector = _traced_cluster()
        tracer = cluster.sim.obs
        assert collector.blocks_committed > 0
        committed = [r for r in tracer.blocks.values() if r.t_commit is not None]
        assert committed
        for record in committed:
            assert record.propose_sid is not None
            assert record.commit_sid is not None
            assert record.t_commit >= record.t_propose


class TestCriticalPathAcceptance:
    """The ISSUE's acceptance numbers, on the fig3-LAN smoke configuration."""

    @pytest.fixture(scope="class")
    def breakdowns(self):
        results = {}
        for protocol in ("achilles", "damysus-r"):
            results[protocol] = run_experiment(
                protocol, f=1, network="LAN", batch_size=50,
                payload_size=64, duration_ms=800, warmup_ms=150,
                counter_write_ms=20.0, seed=11, trace=True,
            )
        return results

    def test_coverage_at_least_95_percent(self, breakdowns):
        for protocol, result in breakdowns.items():
            assert result.extras["trace_coverage"] >= 0.95, (
                f"{protocol}: only {result.extras['trace_coverage']:.1%} "
                "of commit latency attributed"
            )

    def test_damysus_r_counter_share_dwarfs_achilles(self, breakdowns):
        achilles = breakdowns["achilles"].extras
        damysus = breakdowns["damysus-r"].extras
        assert achilles["cp_counter_ms"] == 0.0
        # Damysus-R pays ≥2 counter writes (20 ms each) per commit path.
        assert damysus["cp_counter_ms"] >= 20.0
        share = damysus["cp_counter_ms"] / breakdowns["damysus-r"].commit_latency_ms
        assert share > 0.5

    def test_extras_are_scalars(self, breakdowns):
        for result in breakdowns.values():
            for key, value in result.extras.items():
                assert isinstance(value, (int, float, str)), (key, value)


class TestPerfettoExport:
    def test_real_run_exports_valid_trace(self, tmp_path):
        result = run_experiment(
            "achilles", f=1, network="LAN", batch_size=50, payload_size=64,
            duration_ms=500, warmup_ms=100, seed=11,
            trace=True, trace_path=str(tmp_path / "achilles.json"),
        )
        assert validate_trace(tmp_path / "achilles.json") == []
        assert result.extras["trace_spans"] > 0

    def test_block_lifecycle_events_present(self):
        cluster, _ = _traced_cluster()
        document = to_perfetto(cluster.sim.obs)
        phases = {e["ph"] for e in document["traceEvents"]}
        assert {"X", "b", "e", "M"} <= phases
        begins = sum(1 for e in document["traceEvents"] if e["ph"] == "b")
        ends = sum(1 for e in document["traceEvents"] if e["ph"] == "e")
        assert begins == ends > 0


class TestDeterminism:
    def test_trace_digest_identical_across_runs(self):
        kwargs = dict(protocol="achilles", f=1, network="LAN", batch_size=50,
                      payload_size=64, duration_ms=500, warmup_ms=100,
                      seed=23, trace=True)
        first = run_experiment(**kwargs)
        second = run_experiment(**kwargs)
        assert first.extras["trace_digest"] == second.extras["trace_digest"]
        assert first.extras["trace_spans"] == second.extras["trace_spans"]

    def test_different_seed_different_digest(self):
        kwargs = dict(protocol="achilles", f=1, network="LAN", batch_size=50,
                      payload_size=64, duration_ms=500, warmup_ms=100,
                      trace=True)
        a = run_experiment(seed=23, **kwargs)
        b = run_experiment(seed=24, **kwargs)
        assert a.extras["trace_digest"] != b.extras["trace_digest"]

    @pytest.mark.parametrize("protocol", ["achilles", "damysus-r", "flexibft"])
    def test_tracing_never_changes_outcomes(self, protocol):
        kwargs = dict(protocol=protocol, f=1, network="LAN", batch_size=50,
                      payload_size=64, duration_ms=600, warmup_ms=100,
                      seed=31)
        plain = run_experiment(**kwargs)
        traced = run_experiment(trace=True, **kwargs)
        assert plain.sim_events == traced.sim_events
        assert plain.throughput_ktps == traced.throughput_ktps
        assert plain.commit_latency_ms == traced.commit_latency_ms
        assert plain.blocks_committed == traced.blocks_committed


class TestChaosTraceDump:
    def test_failing_seed_dump_shape(self, tmp_path):
        from repro.faults.chaos import ChaosSpec, run_chaos

        spec = ChaosSpec(protocol="achilles", f=1, duration_ms=2200.0,
                         quiesce_ms=900.0, crashes=1, rollbacks=0,
                         partitions=0)
        path = tmp_path / "chaos.json"
        traced = run_chaos(spec, 5, trace_path=str(path))
        plain = run_chaos(spec, 5)
        assert traced.digest == plain.digest  # tracing is outcome-neutral
        assert validate_trace(path) == []
