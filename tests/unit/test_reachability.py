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

The fourth goes one level further, to parameters: a public parameter
with a default that no call under those directories sets is an option
with one value in use.  It becomes a constant, or it is listed, with the
test that needs it, in :data:`UNSET_OPTIONS` — which may only shrink.
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
    "conflicts": "tests/unit/test_chain.py",
    "cut_pending": "tests/unit/test_storage.py",
    "detach": "tests/unit/test_delivery_guards.py",
    "drop_link": "tests/integration/test_achilles_view_change.py",
    "free": "tests/conftest.py",
    "indices": "tests/unit/test_config_metrics_workload.py",
    # ArrivalEngine's per-arrival draws: the definition TrafficGenerator's
    # compiled loop is held to, run as its oracle.
    "next_client": "tests/property/test_arrival_stream.py",
    "next_gap_ms": "tests/property/test_arrival_stream.py",
    "next_key_rank": "tests/property/test_arrival_stream.py",
    # The queue-state probe the sorted-list oracle compares after every
    # operation.
    "peek_time": "tests/property/test_event_queue_model.py",
    "pending_for": "tests/unit/test_shard_router.py",
    "public_key": "tests/unit/test_crypto.py",
    "remove_rule": "tests/unit/test_net.py",
    "require_valid": "tests/unit/test_crypto.py",
    "serve_stale": "tests/unit/test_tee.py",
    "split_items": "tests/unit/test_shard_ranges.py",
    "synchronous_at": "tests/unit/test_net.py",
    "unlimited": "tests/unit/test_net.py",
    "version_count": "tests/unit/test_storage.py",
}
#: Lower it when an entry goes; raising it is keeping code for a test.
TEST_ONLY_CEILING = 20

#: Public parameters with a default that nothing under ``src/``,
#: ``benchmarks/`` or ``examples/`` sets, and one test that sets each.
#: Labelled ``Class(param)`` for a constructor, ``name(param)`` or
#: ``Class.name(param)`` otherwise.  An entry that gains a caller, or
#: loses its parameter or its test, fails the check until it is removed:
#: the list only shrinks.
UNSET_OPTIONS = {
    "FiniteWorkload(payload_prefix)":
        "tests/unit/test_config_metrics_workload.py",
    "LinkFaultModel(per_kind)": "tests/unit/test_transport.py",
    "LinkFaultModel(per_link)": "tests/unit/test_transport.py",
    # The send-at-a-time oracle the outbox loop is held to.
    "Network.send(cause)": "tests/property/test_outbox_loop.py",
    "TrafficGenerator(record)": "tests/unit/test_workload_gen.py",
    "ascii_xy_chart(width)": "tests/unit/test_charts.py",
    # The CLI run in process; a user's argv is sys.argv.
    "main(argv)": "tests/unit/test_cli.py",
    # A private cache and report sink; a user's come from the environment
    # and stderr.
    "run_experiments(cache_dir)": "tests/integration/test_chaos.py",
    "run_experiments(report)": "tests/integration/test_chaos.py",
}
#: Lower it when an entry goes; raising it is adding an option no caller
#: needs.
UNSET_OPTIONS_CEILING = 9


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
            "print(*sorted(m for m in sys.modules "
            "if m == 'repro' or m.startswith('repro.')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO, check=True,
                         capture_output=True, text=True, timeout=120)
    loaded = out.stdout.split()
    assert len(loaded) <= WORKLOADS_CLOSURE, \
        f"{len(loaded)} repro modules loaded: {' '.join(loaded)}"


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


def _callee(func) -> "str | None":
    """The name a call is matched by: ``f(...)`` and ``x.f(...)`` both
    call ``f``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _values(node):
    """Names and attributes a value hands on (so may later call)."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _values(elt)
    elif isinstance(node, (ast.Name, ast.Attribute)):
        yield _callee(node)


class _Calls(ast.NodeVisitor):
    """Everything under the roots that can set a parameter, by name."""

    def __init__(self, bases: dict) -> None:
        self.bases = bases
        self.keywords: set = set()     # f(name=...)
        self.assigned: set = set()     # x.name = ... (x not self)
        self.splatted: set = set()     # f(**kw)
        self.handed_on: set = set()    # f passed or stored as a value
        self.reach: dict = {}          # f -> most positional args passed
        self._class: "str | None" = None

    def visit_ClassDef(self, node) -> None:
        outer, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = outer

    def visit_Call(self, node) -> None:
        func = node.func
        names = {_callee(func)}
        if self._class is not None and isinstance(func, ast.Attribute) \
                and func.attr == "__init__" and isinstance(func.value, ast.Call):
            names = self.bases.get(self._class, set())  # super().__init__
        elif self._class is not None and isinstance(func, ast.Name) \
                and func.id == "cls":
            names = {self._class}
        reach = len(node.args)
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            reach = sys.maxsize
        for name in names:
            self.reach[name] = max(self.reach.get(name, 0), reach)
            if any(kw.arg is None for kw in node.keywords):
                self.splatted.add(name)
        for kw in node.keywords:
            if kw.arg is not None:
                self.keywords.add(kw.arg)
        for value in node.args + [kw.value for kw in node.keywords]:
            self.handed_on.update(_values(value))
        self.generic_visit(node)

    def _assign(self, targets, value) -> None:
        for target in targets:
            if isinstance(target, ast.Attribute) and not (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                self.assigned.add(target.attr)
        if value is not None:
            self.handed_on.update(_values(value))

    def visit_Assign(self, node) -> None:
        self._assign(node.targets, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node) -> None:
        self._assign([node.target], node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node) -> None:
        self._assign([node.target], node.value)
        self.generic_visit(node)

    def visit_Return(self, node) -> None:
        if node.value is not None:
            self.handed_on.update(_values(node.value))
        self.generic_visit(node)

    def visit_Dict(self, node) -> None:
        for value in node.values:
            self.handed_on.update(_values(value))
        self.generic_visit(node)


def _options(tree: ast.Module, bases: dict, own_init: set):
    """``(label, callee, position, name)`` for every public parameter with
    a default of a public function, method or constructor in ``tree``
    (``position`` is None for a keyword-only one)."""
    scopes = [(None, tree.body)] + [
        (node, node.body) for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)]
    for cls, body in scopes:
        if cls is not None:
            bases[cls.name] = {_callee(base) for base in cls.bases}
            if any(isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                   for fn in body):
                own_init.add(cls.name)
            if cls.name.startswith("_"):
                continue
        for fn in body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or (fn.name.startswith("_") and fn.name != "__init__"):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            if cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in fn.decorator_list):
                positional = positional[1:]  # self / cls
            if fn.name == "__init__":
                callee = label = cls.name
            else:
                callee = fn.name
                label = fn.name if cls is None else f"{cls.name}.{fn.name}"
            defaulted = positional[len(positional) - len(fn.args.defaults):]
            for arg in defaulted:
                yield (f"{label}({arg.arg})", callee, positional.index(arg),
                       arg.arg)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield f"{label}({arg.arg})", callee, None, arg.arg


def unset_options(repo: pathlib.Path) -> set:
    """Labels of the public parameters with a default that no call under
    ``src/``, ``benchmarks/`` or ``examples/`` sets.

    Matched by name, so the check under-reports and never cries wolf: a
    parameter counts as set by any ``name=`` keyword anywhere, by any
    ``x.name = ...`` outside ``self``, and by a call to any function of
    the same name (a class through itself or a subclass that inherits its
    constructor, or ``super().__init__``) that passes it by position or
    splats ``*args`` / ``**kwargs``; a function or class that is passed or
    stored as a value may be called from anywhere, so all its parameters
    count as set."""
    src = sorted((repo / "src" / "repro").rglob("*.py"))
    roots = src + sorted((repo / "benchmarks").rglob("*.py")) \
        + sorted((repo / "examples").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in roots}
    bases: dict = {}
    own_init: set = set()
    options = [option for path in src
               for option in _options(trees[path], bases, own_init)]
    calls = _Calls(bases)
    for tree in trees.values():
        calls.visit(tree)

    def called_as(callee: str) -> set:
        names = {callee}
        grew = True
        while grew:
            heirs = {cls for cls, parents in bases.items()
                     if parents & names and cls not in own_init}
            grew = not heirs <= names
            names |= heirs
        return names

    unset = set()
    for label, callee, position, name in options:
        names = called_as(callee)
        if name.startswith("_") or name in calls.keywords \
                or name in calls.assigned or names & calls.splatted \
                or names & calls.handed_on:
            continue
        if position is not None and position < max(
                calls.reach.get(n, 0) for n in names):
            continue
        unset.add(label)
    return unset


def test_every_option_is_set_by_a_caller_or_listed_as_test_only():
    assert unset_options(REPO) == set(UNSET_OPTIONS)
    assert len(UNSET_OPTIONS) <= UNSET_OPTIONS_CEILING
    for label, test in UNSET_OPTIONS.items():
        callee, _, name = label[:-1].rpartition("(")
        callee = callee.rpartition(".")[2]
        text = (REPO / test).read_text(encoding="utf-8")
        assert re.search(rf"\b{name}\b|\b{callee}\(", text), \
            f"{test} does not use {label}: make it a constant"
