"""Achilles certificates (paper Sec. 4.2 and Sec. 4.5).

Every certificate is a frozen dataclass carrying the signed statement and
the signature(s).  Statement tuples start with the paper's message-type tag
(PROP, COMMIT, DECIDE, ACC, NEW-VIEW, REQ, RPY) so a signature can never be
replayed across certificate types.

A class here declares only its fields, its ``statement()`` — the exact
tuple that is signed — and its wire size.  Everything a signed object
*does* is inherited from the two bases in :mod:`repro.crypto.signatures`:
``Cert.issue(private_key, **fields)`` signs the statement (trusted
components call it inside the enclave), ``validate(keyring, ...)`` checks
the signature(s) against the PKI (untrusted code and other nodes), and
``statement_digest`` memoizes the digest both go through — one certificate
object is typically validated by every node it reaches, and a commitment
certificate checks f+1 signatures over the *same* statement, so
canonicalizing the statement once is one of the simulator's biggest
hot-path savings (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256

from repro.crypto.hashing import cached_property
from repro.crypto.keys import Keyring
from repro.crypto.signatures import (
    QuorumCertificate,
    Signature,
    SignatureList,
    SignedStatement,
    hash_view_digest,
)
from repro.net.message import HASH_BYTES, SIGNATURE_BYTES


@dataclass(frozen=True)
class BlockCertificate(SignedStatement):
    """``⟨PROP, h, v⟩_σ`` — the leader's TEE certifies block ``h`` as the
    unique proposal of view ``v`` (produced by TEEprepare)."""

    block_hash: str
    view: int
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return ("PROP", self.block_hash, self.view)

    statement_digest = hash_view_digest("PROP")

    def wire_size(self) -> int:
        """Serialized size."""
        return 4 + HASH_BYTES + 8 + SIGNATURE_BYTES


@dataclass(frozen=True)
class StoreCertificate(SignedStatement):
    """``⟨COMMIT, h, v⟩_σ`` — a node's TEE certifies that it stored block
    ``h`` of view ``v`` (produced by TEEstore); doubles as its vote."""

    block_hash: str
    view: int
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return ("COMMIT", self.block_hash, self.view)

    statement_digest = hash_view_digest("COMMIT")

    def wire_size(self) -> int:
        """Serialized size."""
        return 6 + HASH_BYTES + 8 + SIGNATURE_BYTES


@dataclass(frozen=True)
class CommitmentCertificate(QuorumCertificate):
    """``⟨DECIDE, h, v⟩_{σ⃗^{f+1}}`` — f+1 store certificates combined by
    the leader; proof that at least one correct node holds the block."""

    block_hash: str
    view: int
    signatures: SignatureList

    #: Each member signature covers a store statement.
    statement = StoreCertificate.statement
    statement_digest = StoreCertificate.statement_digest

    def wire_size(self) -> int:
        """Serialized size (grows with the signature vector)."""
        return 6 + HASH_BYTES + 8 + SIGNATURE_BYTES * len(self.signatures)


@dataclass(frozen=True)
class AccumulatorCertificate(SignedStatement):
    """``⟨ACC, h, v, v', i⃗d⟩_σ`` — the ACCUMULATOR's proof that ``h`` (a
    block stored at view ``v``) is the highest-view stored block among f+1
    view certificates for target view ``v'``.

    The paper's Algorithm 2 checks the target view against the checker's
    ``vi``; since the ACCUMULATOR is stateless (Sec. 4.3) we carry the
    target view in the certificate and let TEEprepare compare it with the
    CHECKER's view — equivalent, but keeps the accumulator stateless.
    """

    block_hash: str
    block_view: int
    target_view: int
    ids: tuple[int, ...]
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return ("ACC", self.block_hash, self.block_view, self.target_view, self.ids)

    def validate(self, keyring: Keyring, quorum: int) -> bool:
        """Signature valid and the id vector names ≥ quorum distinct nodes."""
        return len(set(self.ids)) >= quorum and super().validate(keyring)

    def wire_size(self) -> int:
        """Serialized size."""
        return 3 + HASH_BYTES + 16 + 4 * len(self.ids) + SIGNATURE_BYTES


@dataclass(frozen=True)
class ViewCertificate(SignedStatement):
    """``⟨NEW-VIEW, h, v, v'⟩_σ`` — produced by TEEview: the node's latest
    stored block is ``h`` from view ``v``; the node is now at view ``v'``.

    ``v'`` prevents stale certificates being replayed by Byzantine nodes.
    """

    block_hash: str
    block_view: int
    current_view: int
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return ("NEW-VIEW", self.block_hash, self.block_view, self.current_view)

    @cached_property
    def statement_digest(self) -> str:
        """Memoized digest of :meth:`statement`, encoded in line (as
        :func:`~repro.crypto.signatures.hash_view_digest` does)."""
        block_hash = self.block_hash.encode()
        return sha256(b"s8:NEW-VIEWs%d:%si%di%d" % (
            len(block_hash), block_hash, self.block_view,
            self.current_view)).hexdigest()

    def wire_size(self) -> int:
        """Serialized size."""
        return 8 + HASH_BYTES + 16 + SIGNATURE_BYTES


@dataclass(frozen=True)
class RecoveryRequest(SignedStatement):
    """``⟨REQ, non⟩_σ`` — a rebooting node asks peers for checker state;
    the nonce prevents replayed replies (Sec. 4.5 step ①)."""

    nonce: str
    requester: int
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return ("REQ", self.nonce, self.requester)

    def validate(self, keyring: Keyring) -> bool:
        """Check the signature and claimed identity."""
        return self.signature.signer == self.requester \
            and super().validate(keyring)

    def wire_size(self) -> int:
        """Serialized size."""
        return 3 + HASH_BYTES + 4 + SIGNATURE_BYTES


@dataclass(frozen=True)
class RecoveryReply(SignedStatement):
    """``⟨RPY, preh, prev, vi, k, non⟩_σ`` — a peer's checker reports its
    latest stored block (preh/prev), its current view ``vi``, the
    requester's id ``k``, and the request nonce (Sec. 4.5 step ②)."""

    preh: str
    prepv: int
    vi: int
    requester: int
    nonce: str
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return ("RPY", self.preh, self.prepv, self.vi, self.requester, self.nonce)

    def wire_size(self) -> int:
        """Serialized size."""
        return 3 + 2 * HASH_BYTES + 20 + SIGNATURE_BYTES


__all__ = [
    "BlockCertificate",
    "StoreCertificate",
    "CommitmentCertificate",
    "AccumulatorCertificate",
    "ViewCertificate",
    "RecoveryRequest",
    "RecoveryReply",
]
