"""Unit tests for the paper's experiment sweeps (small configs)."""

from __future__ import annotations

import pathlib
from functools import partial
from types import SimpleNamespace

import pytest

from repro.harness.experiments import (
    FIG3_BATCHES,
    FIG3_FAULTS,
    FIG3_PAYLOADS,
    FIG3_PROTOCOLS,
    sweep,
)


class TestSweepShapes:
    def test_fault_sweep_row_grid(self):
        results = sweep("f", (1, 2), protocols=("achilles", "braft"),
                        network="LAN", seed=1)
        assert len(results) == 4
        assert [(r.protocol, r.f) for r in results] == [
            ("achilles", 1), ("achilles", 2), ("braft", 1), ("braft", 2)]
        assert all(r.network == "LAN" for r in results)
        assert all(r.blocks_committed > 0 for r in results)

    def test_flexibft_gets_its_committee_shape(self):
        results = sweep("f", (2,), protocols=("flexibft",), network="LAN",
                        seed=1)
        assert results[0].n == 7

    def test_payload_sweep_varies_payload_only(self):
        results = sweep("payload_size", (0, 64), protocols=("achilles",),
                        network="LAN", f=1, seed=1)
        assert [r.payload_size for r in results] == [0, 64]
        assert all(r.batch_size == 400 for r in results)

    def test_batch_sweep_varies_batch_only(self):
        results = sweep("batch_size", (50, 100), protocols=("achilles",),
                        network="LAN", f=1, seed=1)
        assert [r.batch_size for r in results] == [50, 100]
        assert results[1].throughput_ktps > results[0].throughput_ktps

    def test_fig4_records_offered_load(self):
        results = sweep("offered_load_tps", (1000,), protocols=("achilles",),
                        network="LAN", f=1, seed=1)
        assert results[0].extras["offered_load_tps"] == 1000
        assert results[0].throughput_ktps == pytest.approx(1.0, rel=0.3)

    def test_fig5_zero_write_means_no_counter_cost(self):
        results = sweep("counter_write_ms", (0,), protocols=("damysus-r",),
                        network="LAN", f=1, seed=1)
        assert results[0].counter_write_ms == 0.0
        assert results[0].commit_latency_ms < 20.0


#: The configs every paper sweep hands ``run_experiments``, one section
#: per sweep call: each benchmark file's full and quick arguments, the
#: traced cost breakdown ``repro trace`` runs, and the Table 1 complexity
#: runs.  A refactor of the sweeps leaves it byte-identical.
SWEEP_PIN = pathlib.Path(__file__).with_name("sweep_configs.txt")


def _sweep_plan(trace_dir: str) -> dict:
    """Section title → the sweep call, with a benchmark's arguments."""
    from repro.harness.analysis import messages_linear_in_n

    fig3 = dict(protocols=FIG3_PROTOCOLS, seed=1)
    plan = {}
    for network, tag in (("WAN", "fig3ab_faults_wan"),
                         ("LAN", "fig3cd_faults_lan")):
        for mode, faults in (("full", FIG3_FAULTS), ("quick", (1, 2, 4))):
            plan[f"{tag} {mode}"] = partial(
                sweep, "f", faults, network=network, batch_size=400,
                payload_size=256, **fig3)
    for tag, network, vary, values, fixed in (
            ("fig3ef_payload_wan", "WAN", "payload_size", FIG3_PAYLOADS,
             dict(batch_size=400)),
            ("fig3gh_payload_lan", "LAN", "payload_size", FIG3_PAYLOADS,
             dict(batch_size=400)),
            ("fig3ij_batch_wan", "WAN", "batch_size", FIG3_BATCHES,
             dict(payload_size=256)),
            ("fig3kl_batch_lan", "LAN", "batch_size", FIG3_BATCHES,
             dict(payload_size=256))):
        for mode, f in (("full", 10), ("quick", 4)):
            plan[f"{tag} {mode}"] = partial(
                sweep, vary, values, network=network, f=f, **fixed, **fig3)
    for mode, f, rates in (
            ("full", 10, (500, 1000, 2000, 4000, 8000, 16000, 32000, 64000)),
            ("quick", 2, (1000, 8000, 64000))):
        plan[f"fig4_latency_throughput {mode}"] = partial(
            sweep, "offered_load_tps", rates, network="LAN", f=f,
            batch_size=400, payload_size=256, **fig3)
    for mode, f, lats in (("full", 10, (0, 10, 20, 40, 80)),
                          ("quick", 2, (0, 20, 80))):
        plan[f"fig5_counter_sweep {mode}"] = partial(
            sweep, "counter_write_ms", lats,
            protocols=("damysus-r", "flexibft", "oneshot-r"), network="LAN",
            f=f, seed=1, batch_size=400, payload_size=256)
    for mode, faults in (("full", (2, 4, 10)), ("quick", (2,))):
        plan[f"table3_overhead {mode}"] = partial(
            sweep, "f", faults, protocols=("achilles", "achilles-c", "braft"),
            network="LAN", seed=1, batch_size=400, payload_size=256)
    plan["cost breakdown LAN f=1"] = partial(
        sweep, "counter_write_ms", (20.0,), network="LAN", f=1,
        trace_dir=trace_dir, batch_size=400, payload_size=256, **fig3)
    for protocol in ("achilles", "damysus", "flexibft"):
        plan[f"messages_linear_in_n {protocol}"] = partial(
            messages_linear_in_n, protocol, fs=(2, 4, 8))
    return plan


def sweep_configs(monkeypatch, trace_dir: str) -> str:
    """Every sweep's configs, run through a stand-in harness: one line
    per config, sorted keys, ``repr`` values, ``extras`` left out and
    trace paths relative to ``trace_dir``.  The ``extras`` tags the
    Fig. 4 and Fig. 5 tables read are checked here, not pinned."""
    import repro.harness.experiments as experiments

    seen: list = []

    def run_experiments(configs):
        seen.extend(configs)
        return [SimpleNamespace(n=1, messages_sent=0, blocks_committed=1)
                for _ in configs]

    monkeypatch.setattr(experiments, "run_experiments", run_experiments)
    lines = []
    for title, call in _sweep_plan(trace_dir).items():
        seen.clear()
        call()
        for tag in ("offered_load_tps", "counter_write_ms"):
            if title.startswith(("fig4", "fig5")) and tag in seen[0]:
                assert [c["extras"] for c in seen] == \
                    [{tag: c[tag]} for c in seen], title
        lines.append(f"[{title}]")
        for config in seen:
            config = dict(config)
            if config.get("trace_path"):
                config["trace_path"] = str(pathlib.Path(
                    config["trace_path"]).relative_to(trace_dir))
            lines.append(" ".join(f"{key}={config[key]!r}"
                                  for key in sorted(config)
                                  if key != "extras"))
    return "\n".join(lines) + "\n"


class TestSweepConfigs:
    def test_every_sweep_hands_the_pinned_configs(self, monkeypatch,
                                                  tmp_path):
        assert sweep_configs(monkeypatch, str(tmp_path)) == \
            SWEEP_PIN.read_text(encoding="utf-8")
