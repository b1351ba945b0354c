"""Wire-size accounting: every message type reports a plausible size, and
sizes grow where the protocol structure says they must (this is what makes
the bandwidth model, and hence the throughput ceilings, meaningful)."""

from __future__ import annotations

import pytest

from repro.chain.block import create_leaf, genesis_block
from repro.chain.transaction import Transaction
from repro.crypto.keys import generate_keypairs
from repro.crypto.signatures import SignatureList, sign
from repro.net.message import HEADER_BYTES, SIGNATURE_BYTES, wire_size


@pytest.fixture
def pairs():
    return generate_keypairs(range(5), seed=1)


def block_with(n_txs: int, payload: int):
    txs = tuple(Transaction(client_id=0, tx_id=i, payload_size=payload)
                for i in range(n_txs))
    return create_leaf(txs, "op", genesis_block(), view=1, proposer=0)


class TestBlockSizes:
    def test_paper_workload_block_size(self):
        """400 × (256 B payload + 8 B metadata) ≈ 105 KB on the wire."""
        block = block_with(400, 256)
        assert block.wire_size() == pytest.approx(400 * 264, rel=0.01)

    def test_empty_payload_block(self):
        block = block_with(400, 0)
        assert block.wire_size() == pytest.approx(400 * 8, rel=0.05)


class TestCertificateSizes:
    def test_quorum_certificates_grow_with_f(self, pairs):
        from repro.core.certificates import CommitmentCertificate

        def qc(k):
            return CommitmentCertificate(
                block_hash="h", view=1,
                signatures=SignatureList.of(
                    sign(pairs[i % 5].private, "COMMIT", "h", 1)
                    for i in range(k)),
            )

        assert qc(5).wire_size() - qc(2).wire_size() == 3 * SIGNATURE_BYTES

    def test_all_achilles_messages_have_sizes(self, pairs):
        from repro.core.certificates import (
            AccumulatorCertificate, BlockCertificate, RecoveryReply,
            RecoveryRequest, StoreCertificate, ViewCertificate,
        )
        from repro.core.node import (
            Decide, NewView, Proposal, RecoveryRequestMsg,
            RecoveryResponseMsg, StoreVote,
        )
        from repro.core.certificates import CommitmentCertificate

        sig = sign(pairs[0].private, "x")
        block = block_with(2, 16)
        block_cert = BlockCertificate("h", 1, sig)
        store_cert = StoreCertificate("h", 1, sig)
        qc = CommitmentCertificate("h", 1, SignatureList.of([sig]))
        view_cert = ViewCertificate("h", 1, 2, sig)
        acc = AccumulatorCertificate("h", 1, 2, (0, 1, 2), sig)
        req = RecoveryRequest("n", 0, sig)
        rpy = RecoveryReply("h", 1, 2, 0, "n", sig)

        messages = [
            Proposal(block, block_cert),
            StoreVote(store_cert),
            Decide(qc),
            NewView(view_cert),
            RecoveryRequestMsg(req),
            RecoveryResponseMsg(rpy, block, qc),
        ]
        for message in messages:
            assert message.wire_size() > 0
        for cert in (block_cert, store_cert, qc, view_cert, acc, req, rpy):
            assert cert.wire_size() >= SIGNATURE_BYTES

    def test_proposal_dominates_votes(self, pairs):
        """The O(n) pattern's byte economics: the block broadcast is the
        heavy message, votes are constant-size."""
        from repro.core.certificates import BlockCertificate, StoreCertificate
        from repro.core.node import Proposal, StoreVote

        sig = sign(pairs[0].private, "x")
        proposal = Proposal(block_with(400, 256), BlockCertificate("h", 1, sig))
        vote = StoreVote(StoreCertificate("h", 1, sig))
        assert proposal.wire_size() > 500 * vote.wire_size()

    def test_envelope_overhead_applied_once(self):
        from repro.net.message import Envelope

        env = Envelope.make(0, 1, "abc", sent_at=0.0)
        assert env.size == HEADER_BYTES + 3


class TestBaselineMessageSizes:
    def test_damysus_and_minbft_messages(self, pairs):
        from repro.baselines.common import PREP, PhaseQC, PhaseVote
        from repro.baselines.damysus.node import DPrepared, DPrepareVote
        from repro.baselines.minbft import MCommit, MPrepare
        from repro.tee.trinc import UsigCertificate

        sig = sign(pairs[0].private, "x")
        vote = PhaseVote(PREP, "h", 1, sig)
        qc = PhaseQC(PREP, "h", 1, SignatureList.of([sig, sig]))
        assert DPrepareVote(vote).wire_size() < DPrepared(qc).wire_size()

        ui = UsigCertificate(0, 1, "d", sig)
        prepare = MPrepare(view=1, block=block_with(10, 16), ui=ui)
        commit = MCommit(view=1, block_hash="h", prepare_digest="d", ui=ui)
        assert prepare.wire_size() > commit.wire_size()

    def test_raft_append_entries_scales_with_entries(self, pairs):
        from repro.baselines.braft import AppendEntries, LogEntry

        entry = LogEntry(term=1, block=block_with(10, 16))
        one = AppendEntries(1, 0, 0, 0, (entry,), 0)
        three = AppendEntries(1, 0, 0, 0, (entry, entry, entry), 0)
        assert three.wire_size() - one.wire_size() == 2 * entry.wire_size()


def test_a_class_level_envelope_size_is_the_payloads_own():
    """A fixed-size vote carries its envelope size on the class, where
    ``intern_size`` finds it: it must be what walking an instance gives."""
    from repro.baselines.braft import AppendReply
    from repro.baselines.flexibft import FVote
    from repro.baselines.minbft import MCommit
    from repro.core.certificates import StoreCertificate
    from repro.core.node import StoreVote
    from repro.tee.trinc import UsigCertificate

    signature = sign(generate_keypairs([0], seed=1)[0].private, "x")
    samples = [
        StoreVote(StoreCertificate("h" * 64, 7, signature)),
        FVote(block_hash="h" * 64, view=7, signature=signature),
        MCommit(view=7, block_hash="h" * 64, prepare_digest="d" * 64,
                ui=UsigCertificate(0, 3, "m" * 64, signature)),
        AppendReply(term=2, follower=1, success=True, match_index=9),
    ]
    for payload in samples:
        assert "_env_size" in type(payload).__dict__
        assert payload._env_size == HEADER_BYTES + wire_size(payload), \
            type(payload).__name__
