"""Signatures and the crypto cost profile.

A :class:`Signature` binds ``(signer, message digest)`` with an HMAC tag.
:func:`sign` / :func:`verify` are *pure* — they do not advance simulated
time themselves; callers charge :class:`CryptoProfile` costs to their CPU
model.  That separation keeps the crypto layer usable in unit tests without
a simulator.

Default costs approximate OpenSSL ECDSA P-256 on the paper's 8-vCPU cloud
machines (sign ≈ 0.04 ms, verify ≈ 0.09 ms); inside an enclave the same
operations run slightly slower and each crossing pays an ECALL/OCALL
transition (modelled in :mod:`repro.tee.enclave`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import ClassVar, Iterable, Optional

from repro.crypto.hashing import cached_property, digest_of
from repro.crypto.keys import Keyring, PrivateKey
from repro.errors import InvalidSignature


@dataclass(frozen=True)
class CryptoProfile:
    """Per-operation CPU costs, in milliseconds.

    ``hash_per_kb_ms`` covers digesting block bodies; ``verify_batch_floor``
    lets large quorum verifications amortize slightly (OpenSSL batching),
    which keeps very large committees from being unrealistically penalized.
    """

    sign_ms: float = 0.025
    verify_ms: float = 0.05
    hash_per_kb_ms: float = 0.004
    verify_batch_floor: float = 0.02

    def hash_cost(self, size_bytes: int) -> float:
        """Cost of hashing ``size_bytes`` bytes."""
        return self.hash_per_kb_ms * (size_bytes / 1024.0)

    def verify_many(self, count: int) -> float:
        """Cost of verifying ``count`` signatures with mild amortization."""
        if count <= 0:
            return 0.0
        floor = self.verify_batch_floor
        each = self.verify_ms * 0.85
        return self.verify_ms + (each if each > floor else floor) * (count - 1)

    @classmethod
    def free(cls) -> "CryptoProfile":
        """A zero-cost profile for logic-only tests."""
        return cls(sign_ms=0.0, verify_ms=0.0, hash_per_kb_ms=0.0, verify_batch_floor=0.0)


@dataclass(frozen=True)
class Signature:
    """A signature over a canonical message digest."""

    signer: int
    digest: str
    tag: str
    #: :func:`verify`'s memo, ``(public key, verdict)``, once set per instance.
    _tag_memo: ClassVar[Optional[tuple]] = None

    @property
    def id(self) -> int:
        """Paper notation: ``σ.id`` — the identity of the signer."""
        return self.signer


def sign(private: PrivateKey, *message_parts: object,
         digest: Optional[str] = None) -> Signature:
    """Sign the canonical digest of ``message_parts``.

    Callers that already hold the message digest (certificates cache the
    digest of their signed statement) pass ``digest=`` to skip re-deriving
    it — the hot-path loops verify/sign the same statement many times.
    """
    if digest is None:
        digest = digest_of(*message_parts)
    tag = private.sign_tag(digest.encode())
    return Signature(signer=private.owner, digest=digest, tag=tag)


def verify(keyring: Keyring, signature: Signature, *message_parts: object,
           digest: Optional[str] = None) -> bool:
    """Verify ``signature`` against ``message_parts`` under the PKI.

    Returns False (never raises) for wrong-message, wrong-signer, or forged
    tags; raises :class:`InvalidSignature` only via :func:`require_valid`.
    ``digest=`` skips the canonicalization when the caller already derived
    the message digest (see :func:`sign`).
    """
    try:
        public = keyring.public_keys[signature.signer]
    except KeyError:
        return False
    if digest is None:
        digest = digest_of(*message_parts)
    if digest != signature.digest:
        return False
    # Memoize the tag check per (signature, public key): every node in a
    # cluster validates the same shared certificate objects, so the HMAC
    # for each signature only needs computing once.  Safe because the
    # payload is signature.digest (frozen) and the memo is keyed on the
    # exact PublicKey object by identity.  A hit costs no call.
    memo = signature._tag_memo
    if memo is not None and memo[0] is public:
        return memo[1]
    ok = public.verify_tag(digest.encode(), signature.tag)
    object.__setattr__(signature, "_tag_memo", (public, ok))
    return ok


def require_valid(keyring: Keyring, signature: Signature, *message_parts: object) -> None:
    """Like :func:`verify` but raises :class:`InvalidSignature` on failure."""
    if not verify(keyring, signature, *message_parts):
        raise InvalidSignature(
            f"signature by node {signature.signer} failed verification"
        )


@dataclass(frozen=True)
class SignatureList:
    """The paper's ``σ⃗`` — an ordered list of signatures over one message."""

    signatures: tuple[Signature, ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, signatures: Iterable[Signature]) -> "SignatureList":
        """Build from any iterable of signatures."""
        return cls(signatures=tuple(signatures))

    def __len__(self) -> int:
        return len(self.signatures)

    def distinct_signers(self) -> set[int]:
        """Set of distinct signer ids."""
        return {s.signer for s in self.signatures}


class Statement:
    """What every certificate signs.  A subclass is a frozen dataclass that
    declares its fields and :meth:`statement`, the exact tuple signed; it
    opens with a message-type tag so that no signature can be replayed as
    another kind of certificate.  The object is immutable, so the digest
    is derived once — one certificate is validated by every node it
    reaches."""

    def statement(self) -> tuple:
        """The signed tuple."""
        raise NotImplementedError

    @cached_property
    def statement_digest(self) -> str:
        """Memoized digest of :meth:`statement`."""
        return digest_of(*self.statement())


def hash_view_digest(tag: str) -> cached_property:
    """The ``statement_digest`` of a ``(tag, block_hash, view)`` statement,
    encoded in line the way :func:`~repro.crypto.hashing.digest_of`
    encodes it (pinned equal to it by
    ``tests/unit/test_signed_statements.py``).  Votes and proposal
    certificates have this shape, and every replica issues one in every
    view: the in-line encoding skips ``statement()`` and ``digest_of``'s
    per-part dispatch."""
    data = tag.encode()
    head = b"s%d:" % len(data) + data + b"s%d:%si%d"

    def statement_digest(self) -> str:
        block_hash = self.block_hash.encode()
        return sha256(
            head % (len(block_hash), block_hash, self.view)).hexdigest()

    statement_digest.__doc__ = f"Memoized digest of ``({tag!r}, " \
        "block_hash, view)``."
    return cached_property(statement_digest)


class SignedStatement(Statement):
    """A statement under one ``signature`` (a field of the subclass)."""

    signature: Signature

    @classmethod
    def issue(cls, private_key: PrivateKey, **fields: object):
        """Sign ``statement()`` over ``fields``: the one way a certificate
        is made, so the tuple signed is the tuple later verified."""
        cert = cls(signature=None, **fields)
        object.__setattr__(
            cert, "signature", sign(private_key, digest=cert.statement_digest))
        return cert

    @property
    def signer(self) -> int:
        """Who signed."""
        return self.signature.signer

    def validate(self, keyring: Keyring) -> bool:
        """Check the signature."""
        return verify(keyring, self.signature, digest=self.statement_digest)


class QuorumCertificate(Statement):
    """A statement under the ``signatures`` (a field of the subclass) of a
    threshold of distinct nodes."""

    signatures: SignatureList

    def validate(self, keyring: Keyring, threshold: int) -> bool:
        """≥ ``threshold`` distinct valid signers over the statement.

        Memoized per ``(keyring, threshold)``: the certificate and the
        keyring are immutable, and the same certificate object reaches
        every node in the committee — without the memo an n=301 run
        re-verifies the same f+1 signatures 301 times per block.
        """
        memo = self.__dict__.get("_validate_memo")
        if memo is not None and memo[0] is keyring and memo[1] == threshold:
            return memo[2]
        digest = self.statement_digest
        valid = {
            s.signer
            for s in self.signatures.signatures
            if verify(keyring, s, digest=digest)
        }
        ok = len(valid) >= threshold
        object.__setattr__(self, "_validate_memo", (keyring, threshold, ok))
        return ok

    def signers(self) -> set[int]:
        """Distinct signer ids."""
        return self.signatures.distinct_signers()


__all__ = [
    "CryptoProfile",
    "Signature",
    "SignatureList",
    "SignedStatement",
    "QuorumCertificate",
    "hash_view_digest",
    "sign",
    "verify",
    "require_valid",
]
