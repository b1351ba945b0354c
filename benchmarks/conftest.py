"""Benchmark-suite fixtures.

Each benchmark regenerates one paper artifact (a figure's data series or a
table's rows).  The rows are:

* printed in the pytest terminal summary (so ``pytest benchmarks/
  --benchmark-only | tee bench_output.txt`` captures them), and
* written to ``benchmarks/results/<artifact>.txt`` — full-size runs only,
  so a quick run never overwrites the committed tables.

Simulated metrics are what matter; wall-clock timings reported by
pytest-benchmark measure the simulator itself.  Every benchmark uses
``benchmark.pedantic(..., rounds=1, iterations=1)`` — an experiment is a
deterministic simulation, so repetition adds nothing but wall time.

Set ``REPRO_BENCH_QUICK=1`` to shrink the sweeps (useful while hacking).
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_collected: list[str] = []


def quick_mode() -> bool:
    """Smaller sweeps for development runs."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


@pytest.fixture
def record_table():
    """Record one artifact's table: printed at session end, and saved
    unless the sweeps are quick-mode ones."""

    def _record(name: str, table: str) -> None:
        _collected.append(table)
        if not quick_mode():
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _collected:
        return
    terminalreporter.write_sep("=", "paper artifact reproductions")
    for table in _collected:
        terminalreporter.write_line(table)
        terminalreporter.write_line("")
