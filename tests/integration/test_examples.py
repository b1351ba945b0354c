"""Smoke tests: the example scripts must run clean end-to-end.

The slow sweeps (protocol_comparison, geo_replication, long_running) are
exercised by the benchmark/perf suites; here we run the fast examples the
README leads with, in-process.
"""

from __future__ import annotations

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "throughput:" in out
        assert "safety check:        OK" in out

    def test_replicated_bank(self, capsys):
        out = run_example("replicated_bank.py", capsys)
        assert "client transactions replied: 40/40" in out
        assert "state roots identical on all 5 replicas: True" in out

    def test_rollback_attack_demo(self, capsys):
        out = run_example("rollback_attack_demo.py", capsys)
        assert "EQUIVOCATION" in out
        assert "attack detected: rollback detected" in out
        assert "recovered from peers" in out

    def test_every_example_has_a_main_guard(self):
        for script in EXAMPLES.glob("*.py"):
            text = script.read_text()
            assert '__name__ == "__main__"' in text, script.name
            assert text.startswith("#!/usr/bin/env python3"), script.name
