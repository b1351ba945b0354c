"""Every module under ``src/repro`` earns its place: something a user can
run — the CLI, a benchmark, an example — must import it.

The import graph is static (AST, nothing executed).  ``from package
import Name`` is followed through the package's ``__init__`` to the
module that defines ``Name``; an ``__init__`` re-export that nobody asks
for keeps nothing alive.  The one exception is ``repro.baselines``, whose
``__init__`` registers protocols *by* importing them.

The second check is the runtime side of the same coin: the benchmark's
import closure is what ``setup_s`` pays for on every ledger row, and a
package ``__init__`` is where it grows unnoticed.

The third goes one level down, from modules to public callables: a
function or method whose *name* nothing under ``src/``, ``benchmarks/``
or ``examples/`` mentions is either deleted or listed, with the test that
needs it, in :data:`TEST_ONLY_CALLABLES` — which may only shrink.
"""

from __future__ import annotations

import ast
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Packages whose ``__init__`` imports are the point, not a convenience.
REGISTERING_PACKAGES = {"repro.baselines"}

#: ``repro.*`` modules loaded by ``import workloads`` (measured; 92 before
#: four modules nobody asked for — quorum certificates, attestation, geo
#: latency, shard traffic — left the ``crypto``, ``tee``, ``net`` and
#: ``workload`` ``__init__``s).  Lower it when the closure shrinks;
#: raising it is a ``setup_s`` regression on all eight ledger rows.
WORKLOADS_CLOSURE = 88


#: Public callables that only a test refers to, and one test that does.
#: Names, not qualified names: the check is by name (a reference to any
#: ``free`` keeps every ``free`` alive), so it under-reports and never
#: cries wolf.  An entry that gains a caller, or loses its definition or
#: its test, fails the check until it is removed — the list only shrinks.
TEST_ONLY_CALLABLES = {
    "all_replied": "tests/integration/test_clients_and_sync.py",
    "armed": "tests/integration/test_achilles_view_change.py",
    "between": "tests/unit/test_sim_process_cpu.py",
    "bft_committee": "tests/integration/test_baseline_protocols.py",
    "byz_defended_sweep": "tests/integration/test_byzantine_campaigns.py",
    "byz_negative_controls": "tests/integration/test_byzantine_campaigns.py",
    "call_soon": "tests/unit/test_sim_kernel.py",
    "conflicts": "tests/unit/test_chain.py",
    "cut_pending": "tests/unit/test_storage.py",
    "detach": "tests/unit/test_delivery_guards.py",
    "drop_link": "tests/integration/test_achilles_view_change.py",
    "endpoints": "tests/unit/test_cluster_and_runner.py",
    "format_network_breakdown": "tests/unit/test_transport.py",
    "free": "tests/conftest.py",
    "idle_at": "tests/unit/test_sim_process_cpu.py",
    "indices": "tests/unit/test_config_metrics_workload.py",
    "is_genesis": "tests/integration/test_checkpointing.py",
    # ArrivalEngine's per-arrival draws: the definition TrafficGenerator's
    # compiled loop is held to, run as its oracle.
    "next_client": "tests/property/test_arrival_stream.py",
    "next_gap_ms": "tests/property/test_arrival_stream.py",
    "next_key_rank": "tests/property/test_arrival_stream.py",
    "of_kind": "tests/unit/test_sim_process_cpu.py",
    "pending_for": "tests/unit/test_shard_router.py",
    "public_key": "tests/unit/test_crypto.py",
    "remove_rule": "tests/unit/test_net.py",
    "require_valid": "tests/unit/test_crypto.py",
    "run_until": "tests/unit/test_cluster_and_runner.py",
    "serve_stale": "tests/unit/test_tee.py",
    "split_items": "tests/unit/test_shard_ranges.py",
    "synchronous_at": "tests/unit/test_net.py",
    "unlimited": "tests/unit/test_net.py",
    "utilization": "tests/unit/test_sim_process_cpu.py",
    "version_count": "tests/unit/test_storage.py",
}
#: Lower it when an entry goes; raising it is keeping code for a test.
TEST_ONLY_CEILING = 32


def _modules(src: pathlib.Path) -> dict:
    """Dotted name → source path of every module under ``src/repro``."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(path: pathlib.Path, module: str, is_package: bool):
    """``(target, name)`` for every import statement in ``path``: ``name``
    is ``None`` for ``import target`` and the imported attribute for
    ``from target import name``.  Relative imports are made absolute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                base = module.split(".")
                base = base[:len(base) - node.level + (1 if is_package else 0)]
                target = ".".join(base + ([target] if target else []))
            for alias in node.names:
                yield target, alias.name


class ImportGraph:
    def __init__(self, repo: pathlib.Path) -> None:
        self.modules = _modules(repo / "src")
        self.packages = {name for name, path in self.modules.items()
                         if path.name == "__init__.py"}
        self.roots = sorted((repo / "benchmarks").rglob("*.py")) \
            + sorted((repo / "examples").glob("*.py"))

    def _defining_module(self, package: str, name: str, seen=()) -> str:
        """The module a package ``__init__`` takes ``name`` from (the
        package itself when ``__init__`` defines it)."""
        for target, imported in _imports(self.modules[package], package, True):
            if imported != name or not target.startswith("repro"):
                continue
            return self._resolve(target, name, seen + (package,))
        return package

    def _resolve(self, target: str, name, seen=()) -> str:
        """The module an ``import target`` / ``from target import name``
        statement depends on."""
        if name is not None and f"{target}.{name}" in self.modules:
            return f"{target}.{name}"
        if name is not None and target in self.packages and target not in seen:
            return self._defining_module(target, name, seen)
        return target

    def _depends_on(self, path: pathlib.Path, module: str = "",
                    is_package: bool = False) -> list:
        """The ``repro`` modules the import statements of ``path`` name."""
        return [self._resolve(target, name)
                for target, name in _imports(path, module, is_package)
                if target.split(".")[0] == "repro"]

    def reachable(self) -> set:
        """Modules reachable from the CLI, a benchmark or an example."""
        reached: set = set()
        frontier = ["repro.cli", "repro.__main__"]
        for path in self.roots:
            frontier += self._depends_on(path)
        while frontier:
            module = frontier.pop()
            if module in reached or module not in self.modules:
                continue
            reached.add(module)
            is_package = module in self.packages
            if is_package and module not in REGISTERING_PACKAGES:
                continue  # an unused re-export keeps nothing alive
            frontier += self._depends_on(self.modules[module], module,
                                         is_package)
        return reached

    def unreachable(self) -> list:
        return sorted(set(self.modules) - self.packages - self.reachable())


def test_every_module_is_reachable_from_something_a_user_runs():
    assert ImportGraph(REPO).unreachable() == []


def test_workloads_import_closure_does_not_grow():
    code = ("import sys; sys.path[:0] = ['src', 'benchmarks/perf']; "
            "import workloads; "
            "print(sum(m == 'repro' or m.startswith('repro.') "
            "for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO, check=True,
                         capture_output=True, text=True, timeout=120)
    assert int(out.stdout) <= WORKLOADS_CLOSURE


def _is_dunder_all(node) -> bool:
    """``__all__ = [...]``, ``__all__ += [...]`` or ``__all__.append(...)``:
    a mention there exports a name, it does not use it."""
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets)
    if isinstance(node, ast.AugAssign):
        return isinstance(node.target, ast.Name) and node.target.id == "__all__"
    return isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Attribute) \
        and isinstance(node.func.value, ast.Name) \
        and node.func.value.id == "__all__"


def unreferenced_callables(repo: pathlib.Path) -> set:
    """Names of public functions and methods defined under ``src/repro``
    that no identifier, attribute, import, keyword or identifier-shaped
    string (``getattr(x, "name")``) anywhere under ``src/``,
    ``benchmarks/`` or ``examples/`` mentions.  Handlers (``on_*``),
    CLI commands (``cmd_*``), private names and dunders are the
    framework's to call and are not counted."""
    src = set((repo / "src" / "repro").rglob("*.py"))
    roots = sorted(src) + sorted((repo / "benchmarks").rglob("*.py")) \
        + sorted((repo / "examples").glob("*.py"))
    defined, mentioned = set(), set()
    for path in roots:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = {id(inner) for node in ast.walk(tree)
                    if _is_dunder_all(node) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.alias):
                mentioned.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.keyword) and node.arg:
                mentioned.add(node.arg)
            elif isinstance(node, ast.Constant) and id(node) not in exported \
                    and isinstance(node.value, str) \
                    and node.value.isidentifier():
                mentioned.add(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and path in src \
                    and not node.name.startswith(("_", "on_", "cmd_")):
                defined.add(node.name)
    return defined - mentioned


def test_every_public_callable_is_used_or_listed_as_test_only():
    assert unreferenced_callables(REPO) == set(TEST_ONLY_CALLABLES)
    assert len(TEST_ONLY_CALLABLES) <= TEST_ONLY_CEILING
    for name, test in TEST_ONLY_CALLABLES.items():
        text = (REPO / test).read_text(encoding="utf-8")
        assert re.search(rf"\.{name}\b|\b{name}\(", text), \
            f"{test} does not use {name}: delete the callable"
