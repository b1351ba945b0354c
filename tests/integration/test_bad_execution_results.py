"""A leader that attaches wrong execution results gets no vote.

A block is ⟨txs, op, h_p⟩ with ``op = executeTx(txs, h_p)`` (paper
Sec. 4.2): results any replica can re-derive, which is what lets a client
trust a single reply (Sec. 6.1).  In every run, every backup checks
``Block.results_valid`` before it votes and traces a refusal as
``bad_execution_results``.  Here every leader derives its ``op`` over its
batch in reverse order: the same transactions, so only the order of the
batch tells the forged result from the honest one.  Backups re-derive
``op`` through ``repro.chain.execution``, so patching the proposer's
binding of ``create_leaf`` in ``repro.consensus.base`` (the leader's
``_build_block`` chains every proposal through it) forges every proposal
and nothing else.  The block keeps the honest batch digest the leader
encoded, so only ``op`` is forged.
"""

from __future__ import annotations

import pytest

import repro.consensus.base as base
from repro.chain.block import create_leaf
from repro.chain.execution import execute_transactions
from repro.client.workload import SaturatedSource
from repro.consensus.cluster import build_cluster
from repro.harness.metrics import MetricsCollector
from repro.harness.runner import protocol_config, resolve_protocol
from repro.net.latency import LAN_PROFILE

from tests.conftest import fast_config

#: Per protocol, the leader's proposal and the message a backup sends
#: once it accepted one.
MESSAGES = {
    "achilles": ("Proposal", "StoreVote"),
    "minbft": ("MPrepare", "MCommit"),
    "flexibft": ("FProposal", "FVote"),
}


def reversed_results(txs, op, parent, view, proposer):
    """The leader's block, its ``op`` derived over the batch reversed."""
    return create_leaf(txs, execute_transactions(txs[::-1], parent.hash),
                       parent, view, proposer)


def run_cluster(protocol: str, config=None):
    spec = resolve_protocol(protocol)
    if config is None:
        config = fast_config(f=1).with_(n=spec.committee(1))
    cluster = build_cluster(
        node_factory=spec.node_cls,
        config=config,
        latency=LAN_PROFILE,
        # Saturated: every batch is full, so reversing it changes it.
        source_factory=lambda sim: SaturatedSource(sim, payload_size=16),
        listener=MetricsCollector(), seed=3,
    )
    cluster.start()
    cluster.run(300.0)
    cluster.assert_safety()
    return cluster


@pytest.mark.parametrize("protocol", sorted(MESSAGES))
def test_honest_results_are_voted_and_committed(protocol):
    """The control: the same cluster with honest leaders commits, so the
    forged run below cannot pass for want of traffic."""
    cluster = run_cluster(protocol)
    _proposal, vote = MESSAGES[protocol]
    assert cluster.min_committed_height() >= 10
    assert cluster.network.stats.by_kind.get(vote, 0) > 0
    assert cluster.sim.trace.count("bad_execution_results") == 0


@pytest.mark.parametrize("protocol", sorted(MESSAGES))
def test_results_over_a_reordered_batch_are_refused(protocol, monkeypatch):
    monkeypatch.setattr(base, "create_leaf", reversed_results)
    cluster = run_cluster(protocol)
    proposal, vote = MESSAGES[protocol]
    sent = cluster.network.stats.by_kind
    assert sent.get(proposal, 0) > 0, "no leader proposed: nothing was checked"
    assert sent.get(vote, 0) == 0, "a backup voted for a forged op"
    assert cluster.max_committed_height() == 0, "a forged op was committed"
    assert "Decide" not in sent, "a forged op was certified"
    for node in cluster.nodes:  # MinBFT: the USIG-certified prepares
        for block_hash in getattr(node, "_certified", {}).values():
            assert node.store.get(block_hash).proposer == node.node_id, \
                "a backup certified a forged op"
    assert cluster.sim.trace.count("bad_execution_results") > 0


@pytest.mark.parametrize("protocol", ["achilles", "damysus", "flexibft",
                                      "minbft", "oneshot"])
def test_experiment_configs_refuse_a_forged_op(protocol, monkeypatch):
    """The config every experiment, campaign and ledger row runs with,
    not only the tests' own: a forged ``op`` is never committed there
    either."""
    monkeypatch.setattr(base, "create_leaf", reversed_results)
    config = protocol_config(resolve_protocol(protocol), f=1, seed=3,
                             counter_write_ms=0.0, batch_size=20)
    cluster = run_cluster(protocol, config)
    assert cluster.max_committed_height() == 0, "a forged op was committed"
    assert cluster.sim.trace.count("bad_execution_results") > 0
