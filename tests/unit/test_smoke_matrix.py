"""The CI smoke job runs every ``*-smoke`` Makefile target, and nothing
the Makefile does not define: a smoke target added to one file cannot be
forgotten in the other."""

from __future__ import annotations

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_ci_smoke_matrix_matches_the_makefile():
    makefile = (REPO / "Makefile").read_text(encoding="utf-8")
    workflow = (REPO / ".github/workflows/ci.yml").read_text(encoding="utf-8")
    targets = re.findall(r"^([\w-]+-smoke):", makefile, flags=re.MULTILINE)
    # The ``target:`` list of the smoke job's matrix, up to its ``steps:``.
    matrix = re.search(r"^ +target:\n(.*?)^ +steps:", workflow,
                       flags=re.MULTILINE | re.DOTALL).group(1)
    entries = re.findall(r"^ +- ([\w-]+)", matrix, flags=re.MULTILINE)
    assert sorted(entries) == sorted(targets)
    assert len(set(entries)) == len(entries)
