"""One table over every signed class: what ``validate`` accepts.

Each entry names a class, sample fields and — spelled here, independently
of the class — the tuple its signature must cover.  An object signed over
that tuple validates; every way of spoiling it does not: one field
changed, the tag produced by another key, a signer the keyring does not
know, a claimed identity that is not the signer's (where the class
carries one), and for quorum certificates one distinct signer too few or
the whole threshold signed by a single node.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.baselines.common import CMT, PREP, PhaseQC, PhaseVote
from repro.baselines.flexibft import FViewChange, FVote
from repro.baselines.minbft import MViewChange
from repro.chain.checkpoint import CheckpointCertificate, CheckpointVote
from repro.core.certificates import (
    AccumulatorCertificate,
    BlockCertificate,
    CommitmentCertificate,
    RecoveryReply,
    RecoveryRequest,
    StoreCertificate,
    ViewCertificate,
)
from repro.crypto.hashing import digest_of
from repro.crypto.keys import Keyring, generate_keypairs
from repro.crypto.signatures import SignatureList, sign
from repro.tee.trinc import UsigCertificate

N = 5
SIGNER = 1
THRESHOLD = 3
PAIRS = generate_keypairs(range(N), seed=24)
RING = Keyring.from_keypairs(PAIRS)
#: A key pair the keyring has never heard of.
STRANGER = generate_keypairs([99], seed=24)[99]

#: class -> (sample fields, the signed tuple, the field that claims the
#: signer's identity or None, extra ``validate`` arguments)
SINGLE = {
    BlockCertificate: (
        dict(block_hash="h", view=4), ("PROP", "h", 4), None, ()),
    StoreCertificate: (
        dict(block_hash="h", view=4), ("COMMIT", "h", 4), None, ()),
    AccumulatorCertificate: (
        dict(block_hash="h", block_view=3, target_view=4, ids=(0, 1, 2)),
        ("ACC", "h", 3, 4, (0, 1, 2)), None, (THRESHOLD,)),
    ViewCertificate: (
        dict(block_hash="h", block_view=3, current_view=4),
        ("NEW-VIEW", "h", 3, 4), None, ()),
    RecoveryRequest: (
        dict(nonce="n", requester=SIGNER), ("REQ", "n", SIGNER),
        "requester", ()),
    RecoveryReply: (
        dict(preh="h", prepv=3, vi=4, requester=2, nonce="n"),
        ("RPY", "h", 3, 4, 2, "n"), None, ()),
    PhaseVote: (
        dict(phase=PREP, block_hash="h", view=4), (PREP, "h", 4), None, ()),
    MViewChange: (dict(new_view=4), ("MVC", 4), None, ()),
    FViewChange: (dict(new_view=4), ("FVC", 4), None, ()),
    FVote: (dict(block_hash="h", view=4), ("FVOTE", "h", 4), None, ()),
    UsigCertificate: (
        dict(node=SIGNER, counter=7, message_digest="m"),
        ("UI", SIGNER, 7, "m"), "node", ()),
    CheckpointVote: (
        dict(height=10, block_hash="h", state_root="r"),
        ("CHKPT", 10, "h", "r"), None, ()),
}

#: class -> (sample fields, the tuple every member signature covers)
QUORUM = {
    CommitmentCertificate: (
        dict(block_hash="h", view=4), ("COMMIT", "h", 4)),
    PhaseQC: (dict(phase=CMT, block_hash="h", view=4), (CMT, "h", 4)),
    CheckpointCertificate: (
        dict(height=10, block_hash="h", state_root="r"),
        ("CHKPT", 10, "h", "r")),
}


def _other(value):
    """A different value of the same type."""
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple):
        return value + (4,)
    raise TypeError(value)


def _digest_checks(obj, statement) -> None:
    expected = digest_of(*statement)
    if hasattr(obj, "statement"):
        assert obj.statement() == statement
    assert getattr(obj, "statement_digest", expected) == expected


@pytest.mark.parametrize("cls", SINGLE, ids=lambda c: c.__name__)
class TestSingleSignature:
    def _issued(self, cls):
        sample, statement, _claims, _extra = SINGLE[cls]
        return cls(signature=sign(PAIRS[SIGNER].private, *statement), **sample)

    def test_issued_object_validates(self, cls):
        _sample, statement, _claims, extra = SINGLE[cls]
        obj = self._issued(cls)
        assert obj.validate(RING, *extra)
        assert obj.validate(RING, *extra)  # and again, off any memo
        assert obj.signature.digest == digest_of(*statement)
        _digest_checks(obj, statement)

    def test_any_changed_field_invalidates(self, cls):
        sample, _statement, _claims, extra = SINGLE[cls]
        obj = self._issued(cls)
        for name in sample:
            spoiled = replace(obj, **{name: _other(sample[name])})
            assert not spoiled.validate(RING, *extra), name

    def test_tag_from_another_key_invalidates(self, cls):
        _sample, statement, _claims, extra = SINGLE[cls]
        obj = self._issued(cls)
        forged = replace(
            obj.signature, tag=sign(PAIRS[2].private, *statement).tag)
        assert not replace(obj, signature=forged).validate(RING, *extra)

    def test_signer_outside_the_keyring_invalidates(self, cls):
        sample, statement, claims, extra = SINGLE[cls]
        if claims is not None:
            sample = dict(sample, **{claims: 99})
            statement = tuple(99 if part == SIGNER and i > 0 else part
                              for i, part in enumerate(statement))
        obj = cls(signature=sign(STRANGER.private, *statement), **sample)
        assert not obj.validate(RING, *extra)


@pytest.mark.parametrize("cls", [c for c in SINGLE if SINGLE[c][2]],
                         ids=lambda c: c.__name__)
def test_claimed_signer_must_be_the_signer(cls):
    """Node 2 validly signs a statement that names node 1."""
    sample, statement, claims, extra = SINGLE[cls]
    obj = cls(signature=sign(PAIRS[2].private, *statement), **sample)
    assert obj.signature.signer != getattr(obj, claims)
    assert not obj.validate(RING, *extra)


def test_accumulator_needs_a_quorum_of_distinct_ids():
    sample, _statement, _claims, _extra = SINGLE[AccumulatorCertificate]
    for ids in ((0, 1), (0, 0, 1)):
        fields_ = dict(sample, ids=ids)
        statement = ("ACC", "h", 3, 4, ids)
        acc = AccumulatorCertificate(
            signature=sign(PAIRS[SIGNER].private, *statement), **fields_)
        assert not acc.validate(RING, THRESHOLD)
        assert acc.validate(RING, 2)


@pytest.mark.parametrize("cls", QUORUM, ids=lambda c: c.__name__)
class TestQuorumCertificate:
    def _combined(self, cls, keys):
        sample, statement = QUORUM[cls]
        return cls(signatures=SignatureList.of(
            sign(key, *statement) for key in keys), **sample)

    def test_threshold_distinct_signers_validate(self, cls):
        _sample, statement = QUORUM[cls]
        qc = self._combined(cls, [PAIRS[i].private for i in range(THRESHOLD)])
        assert qc.validate(RING, THRESHOLD)
        assert qc.validate(RING, THRESHOLD)  # and again, off any memo
        assert not qc.validate(RING, THRESHOLD + 1)  # a memo keys on it
        assert qc.validate(Keyring.from_keypairs(PAIRS), THRESHOLD)
        _digest_checks(qc, statement)

    def test_any_changed_field_invalidates(self, cls):
        sample, _statement = QUORUM[cls]
        qc = self._combined(cls, [PAIRS[i].private for i in range(THRESHOLD)])
        for name in sample:
            spoiled = replace(qc, **{name: _other(sample[name])})
            assert not spoiled.validate(RING, THRESHOLD), name

    def test_one_distinct_signer_short(self, cls):
        keys = [PAIRS[i].private for i in range(THRESHOLD - 1)]
        assert not self._combined(cls, keys).validate(RING, THRESHOLD)
        # Padding with a duplicate, a stranger or a forged tag is no help.
        padded = self._combined(cls, keys + [keys[0], STRANGER.private])
        assert len(padded.signatures) > THRESHOLD
        assert not padded.validate(RING, THRESHOLD)

    def test_threshold_signatures_from_one_signer(self, cls):
        qc = self._combined(cls, [PAIRS[0].private] * THRESHOLD)
        assert len(qc.signatures) == THRESHOLD
        assert not qc.validate(RING, THRESHOLD)
        assert qc.validate(RING, 1)


def test_the_table_covers_every_signed_class():
    """A dataclass under ``repro`` with a ``signature`` / ``signatures``
    field and a ``validate`` that is not in the tables has no fence."""
    import importlib
    import inspect
    import pkgutil

    import repro
    from repro.baselines.common import ViewChangeVote  # abstract: no TAG

    signed = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name and hasattr(cls, "validate") \
                    and hasattr(cls, "__dataclass_fields__") \
                    and {"signature", "signatures"} \
                    & {f.name for f in fields(cls)}:
                signed.add(cls)
    assert signed - {ViewChangeVote} == set(SINGLE) | set(QUORUM)
