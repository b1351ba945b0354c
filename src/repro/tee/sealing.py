"""Sealed storage on an untrusted disk.

SGX ``seal``/``unseal`` bind data to the enclave identity (MRENCLAVE) with
authenticated encryption, but give **no freshness**: the OS stores the
blobs and can serve any authentic old version after a reboot.  We model
this with :class:`SealedBlob` (authenticated by a per-enclave
:class:`SealingKey`) kept in an :class:`UntrustedStore` that retains every
version ever written — the adversary chooses which version an unsealing
enclave gets (see :mod:`repro.tee.rollback`).

Sealed blobs give no **atomicity** either ("TEE is not a Healer"): every
store funnels through a :class:`~repro.storage.journal.WriteAheadJournal`
whose write/fsync/commit persistence points the power-cut explorer
(:mod:`repro.faults.powercut`) can interrupt.  A blob whose flush was cut
mid-record comes back *torn* — its authentication tag never verifies, so
:func:`unseal` raises :class:`~repro.errors.TornWriteError` — while any
*fully persisted* version remains servable (and unsealable) forever.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field, replace
from typing import Any, Optional

# What ``hmac.digest`` calls for a named digest (as ``crypto/keys.py``
# signs), without its wrapper frame: every -R state update seals.
from _hashlib import hmac_digest as _hmac_digest

from repro.crypto.hashing import _canonical, digest_of
from repro.errors import SealingError, TornWriteError
from repro.storage.journal import JournalRecord, WriteAheadJournal

#: Tag prefix marking a partially persisted blob.  Real hardware leaves a
#: half-written ciphertext whose MAC cannot verify; the marker models the
#: same detectability without simulating byte-level corruption.
_TORN_TAG = "torn-write:"


@dataclass(frozen=True)
class SealingKey:
    """Per-enclave sealing key (derived from CPU fuses + MRENCLAVE on real
    SGX; here a capability object the adversary never holds)."""

    enclave_identity: str
    _secret: bytes = field(repr=False)

    @classmethod
    def derive(cls, enclave_identity: str) -> "SealingKey":
        """Deterministically derive the sealing key for an enclave identity
        (every enclave runs on the one simulated platform, ``0``)."""
        secret = hashlib.sha256(f"seal/0/{enclave_identity}".encode()).digest()
        return cls(enclave_identity=enclave_identity, _secret=secret)

    def tag(self, payload: Any, version: int) -> str:
        """Authentication tag over (identity, payload digest, version): an
        HMAC-SHA256 keyed by the sealing secret."""
        payload_digest = hashlib.sha256(_canonical(payload)).hexdigest()
        msg = f"{self.enclave_identity}|{payload_digest}|{version}".encode()
        return _hmac_digest(self._secret, msg, "sha256").hex()


@dataclass(frozen=True)
class SealedBlob:
    """One authenticated-encrypted snapshot of enclave state.

    ``payload`` is carried in the clear for simulation convenience, but the
    API contract is that only code holding the :class:`SealingKey` unseals
    it — the adversary can copy, replay, and reorder blobs, not read or
    forge them.
    """

    enclave_identity: str
    payload: Any
    version: int
    tag: str

    @property
    def digest(self) -> str:
        """Content digest (used for store bookkeeping)."""
        return digest_of(self.enclave_identity, self.version, self.payload)

    @property
    def torn(self) -> bool:
        """Was this blob only partially persisted (power cut mid-flush)?"""
        return self.tag.startswith(_TORN_TAG)


def seal(key: SealingKey, payload: Any, version: int) -> SealedBlob:
    """Produce an authenticated snapshot of ``payload``."""
    return SealedBlob(
        enclave_identity=key.enclave_identity,
        payload=payload,
        version=version,
        tag=key.tag(payload, version),
    )


def torn_blob(blob: SealedBlob) -> SealedBlob:
    """The on-disk remains of ``blob`` after a mid-flush power cut: same
    name and version slot, but the tag can never authenticate."""
    return replace(blob, tag=_TORN_TAG + blob.tag)


def unseal(key: SealingKey, blob: SealedBlob) -> Any:
    """Authenticate and open a snapshot.

    Raises :class:`SealingError` for forged/corrupted/wrong-enclave blobs
    and :class:`TornWriteError` (a ``SealingError`` subclass) for blobs
    whose persistence was cut mid-write.  A *stale but authentic* blob
    opens fine — detecting staleness is the whole rollback-prevention
    problem.
    """
    if blob.torn:
        raise TornWriteError(
            "sealed blob was torn by a power cut mid-write",
            identity=blob.enclave_identity, version=blob.version)
    if blob.enclave_identity != key.enclave_identity:
        raise SealingError(
            "blob sealed for a different enclave identity",
            identity=blob.enclave_identity, version=blob.version)
    if not hmac.compare_digest(key.tag(blob.payload, blob.version), blob.tag):
        raise SealingError(
            "sealed blob failed authentication",
            identity=blob.enclave_identity, version=blob.version)
    return blob.payload


class UntrustedStore:
    """The OS-controlled disk: keeps *every* version of every sealed item.

    Honest operation returns the latest version; the rollback attacker
    overrides :meth:`fetch` selection via ``serve_version``.

    Writes go through the store's write-ahead :attr:`journal`
    (write → fsync → commit per blob).  In ordinary runs the journal is
    passive; under the power-cut explorer a cut can leave the newest
    version lost, torn, or (journal discipline off) out of order, and
    :meth:`power_restore` rebuilds the version history to exactly the
    durable image — torn blobs included, because the adversary can serve
    whatever the disk holds.
    """

    def __init__(self, journaled: bool = True) -> None:
        self._versions: dict[str, list[SealedBlob]] = {}
        self.journal = WriteAheadJournal("sealed-store", journaled=journaled)
        self.journal.restore_fn = self._restore_from_records

    def store(self, name: str, blob: SealedBlob) -> None:
        """Persist a new version of ``name`` (old versions are retained —
        the adversary never forgets)."""
        self._versions.setdefault(name, []).append(blob)
        self.journal.log("store", name, blob)

    def fetch(self, name: str, version_index: Optional[int] = None) -> Optional[SealedBlob]:
        """Return a stored blob: the latest by default, or any retained
        ``version_index`` (adversary's choice)."""
        versions = self._versions.get(name)
        if not versions:
            return None
        if version_index is None:
            return versions[-1]
        if 0 <= version_index < len(versions):
            return versions[version_index]
        return None

    def version_count(self, name: str) -> int:
        """How many versions of ``name`` are retained."""
        return len(self._versions.get(name, []))

    def names(self) -> list[str]:
        """All stored item names."""
        return sorted(self._versions)

    def power_restore(self):
        """Reboot after a power cut: serve exactly the durable image
        (no-op when no cut is pending).  Returns the journal's
        :class:`~repro.storage.journal.RecoveryReport`, or ``None``."""
        return self.journal.power_restore()

    def _restore_from_records(self, records: list[JournalRecord]) -> None:
        """Rebuild the version history from the surviving journal records.

        A surviving record marked torn (journal discipline off) reappears
        as a torn blob: present on disk, servable by the adversary, but
        failing tag authentication at :func:`unseal`.
        """
        self._versions = {}
        for record in records:
            blob = record.value
            if record.torn:
                blob = torn_blob(blob)
            self._versions.setdefault(record.key, []).append(blob)


__all__ = ["SealingKey", "SealedBlob", "seal", "unseal", "torn_blob",
           "UntrustedStore"]
