"""Every send goes through ``ReplicaBase.send_to``.

``send_to`` is the one choke point on the way out of a replica: the
Byzantine strategy engine (``faults/byz.py``) filters there, and the
outbox it appends to is what ``_flush`` hands the transport, stamped with
the sending span.  A ``broadcast`` override or a direct ``_outbox``
append elsewhere would send past both.  The check is static (AST,
nothing executed): outside ``consensus/base.py``, no module under
``src/repro`` defines ``broadcast`` or names ``_outbox``.
"""

from __future__ import annotations

import ast
import pathlib
import textwrap

from repro.consensus.cluster import build_cluster
from repro.core.node import AchillesNode
from repro.net.latency import LAN_PROFILE

from tests.conftest import fast_config

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
OWNER = SRC / "consensus" / "base.py"


def bypasses(source: str, where: str) -> list:
    """``where:line what`` for every ``broadcast`` definition and every
    ``_outbox`` mention in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "broadcast":
            what = "defines broadcast"
        elif (isinstance(node, ast.Attribute) and node.attr == "_outbox") \
                or (isinstance(node, ast.Name) and node.id == "_outbox"):
            what = "touches _outbox"
        else:
            continue
        found.append((node.lineno, f"{where}:{node.lineno} {what}"))
    return [hit for _line, hit in sorted(found)]


def _file_bypasses(path: pathlib.Path) -> list:
    return bypasses(path.read_text(encoding="utf-8"),
                    str(path.relative_to(SRC)))


def test_only_the_replica_base_sends_past_send_to():
    assert _file_bypasses(OWNER)  # the check still sees the one legitimate use
    assert [hit for path in sorted(SRC.rglob("*.py")) if path != OWNER
            for hit in _file_bypasses(path)] == []


def _snippet(body: str) -> list:
    return bypasses(textwrap.dedent(body), "m.py")


def test_a_broadcast_override_is_a_bypass():
    assert _snippet("""
        class Node(Base):
            def broadcast(self, payload, include_self=False):
                for dst in self.members:
                    self.send_to(dst, payload)
        """) == ["m.py:3 defines broadcast"]


def test_an_outbox_append_is_a_bypass():
    assert _snippet("""
        class Node(Base):
            def shout(self, payload):
                self._outbox.append((0, payload))
                _outbox = None
        """) == ["m.py:4 touches _outbox", "m.py:5 touches _outbox"]


def test_sending_through_send_to_or_broadcast_is_not_a_bypass():
    assert _snippet("""
        class Node(Base):
            def shout(self, payload):
                self.broadcast(payload, include_self=True)
                self.send_to(0, payload)
                outbox = []
        """) == []


class Recorder(AchillesNode):
    """An Achilles replica that records every ``send_to`` it makes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sent: list = []

    def send_to(self, dst, payload) -> None:
        self.sent.append((dst, payload))
        super().send_to(dst, payload)


def test_broadcast_sends_each_copy_through_send_to():
    cluster = build_cluster(Recorder, fast_config(f=1), LAN_PROFILE, seed=3)
    node = cluster.nodes[0]
    node.broadcast("hello", include_self=True)
    assert node.sent == [(1, "hello"), (2, "hello"), (0, "hello")]
    node.sent.clear()
    node.broadcast("again")
    assert node.sent == [(1, "again"), (2, "again")]
