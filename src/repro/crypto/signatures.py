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
from typing import ClassVar, Iterable, Optional, Sequence

from repro.crypto.hashing import digest_of
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

    def signers(self) -> tuple[int, ...]:
        """Signer ids, in list order."""
        return tuple(s.signer for s in self.signatures)

    def distinct_signers(self) -> set[int]:
        """Set of distinct signer ids."""
        return {s.signer for s in self.signatures}

    def verify_all(self, keyring: Keyring, *message_parts: object) -> bool:
        """True iff every member signature verifies over ``message_parts``."""
        digest = digest_of(*message_parts)
        return all(verify(keyring, s, digest=digest) for s in self.signatures)


def verify_distinct(
    keyring: Keyring,
    signatures: Sequence[Signature],
    threshold: int,
    *message_parts: object,
) -> bool:
    """True iff ≥ ``threshold`` *distinct* signers validly signed the message."""
    digest = digest_of(*message_parts)
    valid_signers = {
        s.signer for s in signatures if verify(keyring, s, digest=digest)
    }
    return len(valid_signers) >= threshold


__all__ = [
    "CryptoProfile",
    "Signature",
    "SignatureList",
    "sign",
    "verify",
    "require_valid",
    "verify_distinct",
]
