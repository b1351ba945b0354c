"""A class-level envelope size is the size the message would be given.

``Network.send_outbox`` and ``Envelope.make`` read ``payload._env_size``
before they ask :func:`~repro.net.message.intern_size`, so a message
class whose every instance has the same size declares it once, on the
class, and pays no call per send.  Nothing recomputes it afterwards: a
declared figure that drifts from ``HEADER_BYTES + wire_size()`` would
silently change every serialization delay and byte count downstream.

This audit wraps ``send_outbox`` over short chaos campaigns of every
registered protocol (crashes, so view changes, slow paths and recovery
traffic are sent too) and over Byzantine bundles whose replicas build
and re-send votes themselves, and checks every payload whose class
declares ``_env_size``.  Every such class in ``repro`` must be seen.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.faults.chaos import ChaosSpec, run_chaos
from repro.harness.runner import PROTOCOLS, resolve_protocol
from repro.net.message import HEADER_BYTES
from repro.net.network import Network

resolve_protocol("achilles")  # fills the registry

#: Faulty but short: two crash/reboot cycles and a partition, f = 1.
CAMPAIGN = dict(f=1, duration_ms=1500.0, quiesce_ms=600.0, crashes=2,
                rollbacks=1, partitions=1)

#: Byzantine bundles that send votes a correct replica would not: a
#: Damysus-R replica asking its checker for a second block and prepare
#: vote in the view it proposed in, and a MinBFT-R replica burning USIG
#: values and re-broadcasting a consumed commit.
BYZANTINE = [
    ChaosSpec(protocol="damysus-r", f=1, duration_ms=1500.0, quiesce_ms=600.0,
              crashes=1, rollbacks=0, partitions=0,
              byz=("equivocate", "hide-decide")),
    ChaosSpec(protocol="minbft-r", f=1, duration_ms=1500.0, quiesce_ms=600.0,
              crashes=1, rollbacks=0, partitions=0,
              byz=("skip-counter", "equivocate")),
]


def fixed_size_classes() -> "dict[str, type]":
    """Every concrete message class in ``repro`` that declares (or
    inherits) a class-level ``_env_size``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name and not cls.__subclasses__() \
                    and any("_env_size" in vars(c) for c in cls.__mro__):
                found[cls.__qualname__] = cls
    return found


@pytest.fixture(scope="module")
def audit():
    """``(checked, mismatches)`` over every campaign: the names of the
    fixed-size classes sent, and one line per size that disagreed."""
    checked: set[str] = set()
    mismatches: set[str] = set()
    original = Network.send_outbox

    def send_outbox(self, src, outbox, *args, **kwargs):
        outbox = list(outbox)
        for _dst, payload in outbox:
            declared = getattr(type(payload), "_env_size", None)
            if declared is None:
                continue
            name = type(payload).__qualname__
            checked.add(name)
            actual = HEADER_BYTES + payload.wire_size()
            if declared != actual:
                mismatches.add(f"{name}: declared {declared}, "
                               f"header + wire_size() = {actual}")
        return original(self, src, outbox, *args, **kwargs)

    Network.send_outbox = send_outbox
    try:
        for protocol in sorted(PROTOCOLS):
            run_chaos(ChaosSpec(protocol=protocol, **CAMPAIGN), seed=0)
        for spec in BYZANTINE:
            attempts = run_chaos(spec, seed=0).extras["byz_attempts"]
            assert all(attempts.values()), (
                f"a Byzantine strategy never engaged: {attempts}")
    finally:
        Network.send_outbox = original
    return checked, mismatches


def test_every_declared_envelope_size_is_header_plus_wire_size(audit):
    _checked, mismatches = audit
    assert not mismatches, sorted(mismatches)


def test_every_fixed_size_class_is_audited(audit):
    checked, _mismatches = audit
    declared = set(fixed_size_classes())
    assert declared <= checked, (
        f"never sent in the audit campaigns: {sorted(declared - checked)}")
