"""Shared test fixtures and helpers."""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.client.workload import SaturatedSource
from repro.consensus.config import NodeCosts, ProtocolConfig
from repro.core.protocol import build_achilles_cluster
from repro.crypto.keys import Keyring, generate_keypairs
from repro.crypto.signatures import CryptoProfile
from repro.harness.metrics import MetricsCollector
from repro.net import network as network_module
from repro.net.latency import LAN_PROFILE
from repro.tee.enclave import EnclaveProfile


@pytest.fixture
def keypairs():
    """Keypairs for a 5-node committee."""
    return generate_keypairs(range(5), seed=42)


@pytest.fixture
def keyring(keypairs):
    """PKI for the 5-node committee."""
    return Keyring.from_keypairs(keypairs)


def fast_config(f: int = 2, **overrides) -> ProtocolConfig:
    """A logic-focused config: real protocol, tiny costs, short timeouts."""
    defaults = dict(
        batch_size=20,
        payload_size=16,
        base_timeout_ms=50.0,
        recovery_retry_ms=10.0,
        seed=3,
    )
    defaults.update(overrides)
    return ProtocolConfig.tee_committee(f=f, **defaults)


def free_config(f: int = 2, **overrides) -> ProtocolConfig:
    """A zero-cost config for pure-logic unit tests."""
    defaults = dict(
        costs=NodeCosts.free(),
        crypto=CryptoProfile.free(),
        enclave=EnclaveProfile(ecall_ms=0.0, crypto_factor=1.0, seal_ms=0.0,
                               init_base_ms=0.0, init_per_peer_ms=0.0),
    )
    defaults.update(overrides)
    return fast_config(f=f, **defaults)


def achilles_cluster(f: int = 2, config: ProtocolConfig | None = None,
                     seed: int = 3, payload_size: int = 16, **kwargs):
    """A small, saturated Achilles cluster with a metrics collector."""
    collector = MetricsCollector(warmup_ms=0.0)
    cluster = build_achilles_cluster(
        f=f,
        latency=LAN_PROFILE,
        config=config if config is not None else fast_config(f=f),
        source_factory=lambda sim: SaturatedSource(sim, payload_size=payload_size),
        listener=collector,
        seed=seed,
        **kwargs,
    )
    cluster.collector = collector  # convenience for tests
    return cluster


@contextmanager
def normal_block_starts():
    """Record, per stream, the state each block of normals a ``Network``
    reads is drawn from (yields ``{rng: state}``, the latest block's)."""
    starts: dict = {}
    read = network_module.normal_block

    def recording(rng):
        starts[rng] = rng.getstate()
        return read(rng)

    with mock.patch.object(network_module, "normal_block", recording):
        yield starts


def stream_position(net, starts) -> tuple:
    """The ``network`` stream's state as per-draw stdlib calls would have
    left it.  A stream read in blocks is ahead of that by design, so this
    is the state its current block started from (``starts``, from
    :func:`normal_block_starts`) advanced by one ``gauss`` per normal
    drawn from the block; a stream no block was read from is as it is."""
    start = starts.get(net._rng)
    if start is None:
        return net._rng.getstate()
    replay = random.Random()
    replay.setstate(start)
    for _ in range(net._drawn):
        replay.gauss(0.0, 1.0)
    return replay.getstate()
