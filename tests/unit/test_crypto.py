"""Unit tests for the crypto substrate: hashing, keys, signatures."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.crypto.hashing import GENESIS_HASH, digest_of, sha256_hex
from repro.crypto.keys import Keyring, generate_keypairs
from repro.crypto.signatures import (
    CryptoProfile,
    QuorumCertificate,
    SignatureList,
    require_valid,
    sign,
    verify,
)
from repro.errors import CryptoError, InvalidSignature


@dataclass(frozen=True)
class Quorum(QuorumCertificate):
    """The smallest quorum certificate: signatures over one message."""

    message: str
    signatures: SignatureList

    def statement(self) -> tuple:
        return (self.message,)


class TestHashing:
    def test_deterministic(self):
        assert digest_of("a", 1, [2, 3]) == digest_of("a", 1, [2, 3])

    def test_dict_order_independent(self):
        assert digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})

    def test_type_distinction(self):
        # int 1 and string "1" must hash differently
        assert digest_of(1) != digest_of("1")
        assert digest_of(True) != digest_of(1)
        assert digest_of(None) != digest_of(0)

    def test_nesting_distinction(self):
        assert digest_of([1, 2], [3]) != digest_of([1], [2, 3])
        assert digest_of(["ab"]) != digest_of(["a", "b"])

    def test_sha256_hex(self):
        assert sha256_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_genesis_hash_is_stable(self):
        assert len(GENESIS_HASH) == 64

    def test_canonical_encoding_golden_bytes(self):
        # The canonical encoding is observable behaviour (digests feed
        # signed statements); pin the exact bytes so the streaming
        # encoder can never drift from the format silently.
        from repro.crypto.hashing import _canonical

        assert _canonical(None) == b"N"
        assert _canonical(True) == b"T"
        assert _canonical(False) == b"F"
        assert _canonical(7) == b"i7"
        assert _canonical(-3) == b"i-3"
        assert _canonical(1.5) == b"f1.5"
        assert _canonical("ab") == b"s2:ab"
        assert _canonical("é") == b"s2:\xc3\xa9"  # byte length, not chars
        assert _canonical(b"\x00\xff") == b"b2:\x00\xff"
        assert _canonical([1, "a"]) == b"l2:i1s1:a"
        assert _canonical((1, "a")) == b"l2:i1s1:a"  # tuples == lists
        assert _canonical({"b": 2, "a": 1}) == b"d2:s1:ai1s1:bi2"
        assert _canonical([]) == b"l0:"

    def test_canonical_handles_int_subclasses(self):
        import enum

        from repro.crypto.hashing import _canonical

        class Kind(enum.IntEnum):
            PREPARE = 1

        assert _canonical(Kind.PREPARE) == _canonical(1) == b"i1"

    def test_digest_streaming_matches_joined_encoding(self):
        # digest_of streams parts into the hash; it must equal hashing
        # the concatenated canonical encodings.
        import hashlib

        from repro.crypto.hashing import _canonical

        parts = ("COMMIT", {"h": 3}, [1, (2, b"x")], 4.25, None)
        joined = b"".join(_canonical(p) for p in parts)
        assert digest_of(*parts) == hashlib.sha256(joined).hexdigest()


class TestKeys:
    def test_generate_deterministic(self):
        a = generate_keypairs([0, 1], seed=1)
        b = generate_keypairs([0, 1], seed=1)
        assert a[0].public == b[0].public

    def test_different_seeds_differ(self):
        a = generate_keypairs([0], seed=1)
        b = generate_keypairs([0], seed=2)
        assert a[0].public != b[0].public

    def test_keyring_lookup(self):
        pairs = generate_keypairs(range(3), seed=1)
        ring = Keyring.from_keypairs(pairs)
        assert ring.public_key(1) == pairs[1].public
        assert 2 in ring
        assert 5 not in ring
        assert len(ring) == 3
        assert ring.node_ids() == [0, 1, 2]

    def test_keyring_missing_key_raises(self):
        ring = Keyring({})
        with pytest.raises(CryptoError):
            ring.public_key(0)


class TestSignatures:
    @pytest.fixture
    def setup(self):
        pairs = generate_keypairs(range(3), seed=1)
        return pairs, Keyring.from_keypairs(pairs)

    def test_sign_verify_roundtrip(self, setup):
        pairs, ring = setup
        sig = sign(pairs[0].private, "COMMIT", "h", 3)
        assert verify(ring, sig, "COMMIT", "h", 3)
        assert sig.id == 0

    def test_wrong_message_fails(self, setup):
        pairs, ring = setup
        sig = sign(pairs[0].private, "COMMIT", "h", 3)
        assert not verify(ring, sig, "COMMIT", "h", 4)

    def test_forged_tag_fails(self, setup):
        pairs, ring = setup
        sig = sign(pairs[0].private, "m")
        from repro.crypto.signatures import Signature

        forged = Signature(signer=1, digest=sig.digest, tag=sig.tag)
        assert not verify(ring, forged, "m")

    def test_unknown_signer_fails(self, setup):
        pairs, ring = setup
        from repro.crypto.signatures import Signature

        rogue = Signature(signer=99, digest="d", tag="t")
        assert not verify(ring, rogue, "m")

    def test_require_valid_raises(self, setup):
        pairs, ring = setup
        sig = sign(pairs[0].private, "m")
        require_valid(ring, sig, "m")  # no raise
        with pytest.raises(InvalidSignature):
            require_valid(ring, sig, "other")

    def test_signature_list(self, setup):
        pairs, ring = setup
        sigs = SignatureList.of(sign(pairs[i].private, "m") for i in range(3))
        assert len(sigs) == 3
        assert sigs.distinct_signers() == {0, 1, 2}
        # Every member verifies over "m", none over another message.
        assert Quorum("m", sigs).validate(ring, 3)
        assert not Quorum("other", sigs).validate(ring, 1)

    def test_verify_distinct_counts_unique_signers(self, setup):
        pairs, ring = setup
        sigs = SignatureList.of(
            [sign(pairs[0].private, "m")] * 3 + [sign(pairs[1].private, "m")])
        assert Quorum("m", sigs).validate(ring, 2)
        assert not Quorum("m", sigs).validate(ring, 3)


class TestCryptoProfile:
    def test_costs(self):
        p = CryptoProfile(sign_ms=0.04, verify_ms=0.1, hash_per_kb_ms=0.01,
                          verify_batch_floor=0.05)
        assert p.hash_cost(2048) == pytest.approx(0.02)
        assert p.verify_many(0) == 0.0
        assert p.verify_many(1) == pytest.approx(0.1)
        # amortized: first full, rest at max(floor, 85%)
        assert p.verify_many(3) == pytest.approx(0.1 + 2 * 0.085)

    def test_free_profile_is_zero(self):
        p = CryptoProfile.free()
        assert p.verify_many(100) == 0.0
        assert p.hash_cost(10**6) == 0.0

    def test_verify_many_edge_counts(self):
        # Pins verify_many(0/1/n): zero (and negative) counts are free, a
        # single verification costs exactly verify_ms (the batch floor must
        # not leak into the count=1 case), and each further signature adds
        # the amortized per-signature cost.
        p = CryptoProfile(sign_ms=0.04, verify_ms=0.1, hash_per_kb_ms=0.01,
                          verify_batch_floor=0.05)
        assert p.verify_many(-2) == 0.0
        assert p.verify_many(0) == 0.0
        assert p.verify_many(1) == pytest.approx(p.verify_ms)
        assert p.verify_many(2) - p.verify_many(1) == pytest.approx(0.085)

    def test_verify_many_batch_floor_binds(self):
        # When 85% of verify_ms dips below the floor, the floor is charged
        # for every signature after the first.
        p = CryptoProfile(sign_ms=0.01, verify_ms=0.02, hash_per_kb_ms=0.01,
                          verify_batch_floor=0.05)
        assert p.verify_many(1) == pytest.approx(0.02)
        assert p.verify_many(4) == pytest.approx(0.02 + 3 * 0.05)

    def test_default_profile_verify_many(self):
        # The default profile (sign 0.025, verify 0.05, floor 0.02) uses
        # the 85% amortized rate, since 0.0425 > floor.
        p = CryptoProfile()
        assert p.verify_many(1) == pytest.approx(0.05)
        assert p.verify_many(10) == pytest.approx(0.05 + 9 * 0.0425)

    def test_hash_cost_is_linear_in_bytes(self):
        p = CryptoProfile(sign_ms=0.04, verify_ms=0.1, hash_per_kb_ms=0.01,
                          verify_batch_floor=0.05)
        assert p.hash_cost(0) == 0.0
        assert p.hash_cost(1024) == pytest.approx(0.01)
        # fractional kilobytes are charged pro rata, not rounded
        assert p.hash_cost(512) == pytest.approx(0.005)
        assert p.hash_cost(1536) == pytest.approx(
            p.hash_cost(1024) + p.hash_cost(512))
