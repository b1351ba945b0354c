"""Host-time attribution by layer, measured from outside the program.

A layer is a ``repro`` package.  :class:`BoundaryTracer` installs a
``sys.setprofile`` hook and keeps a stack of layers: a span opens when
control crosses from one ``repro.<layer>`` package into another, and
time spent in stdlib or builtin code is charged to the layer that called
it (plain ``cProfile`` bucketing leaves that fifth of the time as
"other").  Spans stay in memory as running per-layer totals and are read
once the traced pass ends.

The hook costs roughly a microsecond per call event, so a traced pass is
a few times slower than an untraced one, and the cost lands on layers in
proportion to their *call counts*, not their time.  Read the shares as a
guide to where to look; judge a change by the untraced ``wall_s``.
"""

from __future__ import annotations

import os
import sys
import time

#: Every layer the benchmark reports, in report order.
LAYERS = (
    "sim", "net", "net.transport", "crypto", "tee", "storage", "chain",
    "consensus", "core", "baselines", "client", "workload", "shard",
    "faults", "harness.metrics", "harness.invariants", "harness.soak", "obs",
)
#: Frames that belong to no layer: this benchmark's own files and the
#: parts of ``repro`` outside the packages above (runner, errors, ...).
OTHER = "other"

#: Modules that are layers of their own inside a package.
_MODULE_LAYERS = {
    ("net", "transport"): "net.transport",
    ("harness", "metrics"): "harness.metrics",
    ("harness", "invariants"): "harness.invariants",
    ("harness", "soak"): "harness.soak",
}
_PACKAGE_LAYERS = frozenset(l for l in LAYERS if "." not in l)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of_file(filename: str):
    """The layer a source file belongs to.

    Returns a name from :data:`LAYERS`, :data:`OTHER`, or ``None`` for a
    file outside the program (stdlib, builtins), whose time belongs to
    whichever layer called it.
    """
    parts = filename.replace("\\", "/").split("/")
    if "repro" in parts:
        rest = parts[len(parts) - parts[::-1].index("repro"):]
        if len(rest) >= 2:
            package = rest[0]
            module = rest[1][:-3] if rest[1].endswith(".py") else rest[1]
            special = _MODULE_LAYERS.get((package, module))
            if special is not None:
                return special
            if package in _PACKAGE_LAYERS:
                return package
        return OTHER
    if os.path.abspath(filename).startswith(_BENCH_DIR + os.sep):
        return OTHER
    return None


def entry_points() -> dict:
    """Code objects of the named public entry points, by metric name.

    Resolved from the public functions themselves, so a rename shows up
    as an import error here rather than as a silent zero.
    """
    from repro.chain.execution import KVStateMachine, execute_transactions
    from repro.chain.snapshot import build_snapshot
    from repro.crypto.signatures import sign, verify
    from repro.net.network import Network
    from repro.shard.machine import ShardStateMachine
    from repro.shard.router import Router
    from repro.storage.journal import WriteAheadJournal
    from repro.tee.counters import PersistentCounter
    from repro.tee.enclave import ecall
    from repro.tee.sealing import seal

    # Every @ecall method shares the decorator's one wrapper code object.
    ecall_wrapper = ecall(lambda self: None)
    functions = {
        "crypto.sign_calls": (sign,),
        "crypto.verify_calls": (verify,),
        "tee.ecalls": (ecall_wrapper,),
        "tee.counter_writes": (PersistentCounter.increment,),
        "tee.seals": (seal,),
        "storage.journal_records": (WriteAheadJournal.write,
                                    WriteAheadJournal.log_atomic),
        "storage.fsyncs": (WriteAheadJournal.fsync,),
        "chain.blocks_executed": (KVStateMachine.apply_batch,
                                  ShardStateMachine.apply_batch,
                                  execute_transactions),
        "chain.snapshots_built": (build_snapshot,),
        "net.sends": (Network.transmit,),
        "shard.router_submits": (Router.submit_payload,),
    }
    return {fn.__code__: name
            for name, fns in functions.items() for fn in fns}


class BoundaryTracer:
    """Per-layer self time, entries, edges and entry-point call counts."""

    def __init__(self, counted: dict) -> None:
        self.self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        self.entries = dict.fromkeys(LAYERS + (OTHER,), 0)
        self.edges: dict = {}
        self.calls = dict.fromkeys(set(counted.values()), 0)
        self._counted = counted
        self._layer_of_code: dict = {}

    def run(self, fn):
        """Call ``fn()`` under the hook; the caller's frame is ``other``."""
        hook = self._make_hook()
        sys.setprofile(hook)
        try:
            return fn()
        finally:
            sys.setprofile(None)
            hook(None, "stop", None)

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def _make_hook(self):
        self_s = self.self_s
        entries = self.entries
        edges = self.edges
        calls = self.calls
        counted = self._counted
        layer_of_code = self._layer_of_code
        clock = time.perf_counter
        stack = [OTHER]
        state = [OTHER, clock()]  # current layer, when it became current

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                layer = layer_of_code.get(code, 0)
                if layer == 0:
                    layer = layer_of_code[code] = layer_of_file(
                        code.co_filename)
                if code in counted:
                    calls[counted[code]] += 1
                current = state[0]
                if layer is None:
                    layer = current
                elif layer != current:
                    now = clock()
                    self_s[current] += now - state[1]
                    state[0] = layer
                    state[1] = now
                    entries[layer] += 1
                    edge = (current, layer)
                    edges[edge] = edges.get(edge, 0) + 1
                stack.append(layer)
            elif event == "return":
                if len(stack) > 1:
                    stack.pop()
                    layer = stack[-1]
                    current = state[0]
                    if layer != current:
                        now = clock()
                        self_s[current] += now - state[1]
                        state[0] = layer
                        state[1] = now
            elif event == "stop":
                self_s[state[0]] += clock() - state[1]
            # c_call / c_return / c_exception: builtin time stays with
            # the current layer.

        return hook
