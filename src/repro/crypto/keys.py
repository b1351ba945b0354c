"""Key material and the PKI registry.

A :class:`PrivateKey` holds secret bytes; possession of the object is the
capability to sign.  The matching :class:`PublicKey` holds only the key id
and a commitment to the secret, which suffices to verify tags.  The
:class:`Keyring` plays the role of the paper's PKI: it maps node ids to
public keys and is distributed to every node (and to trusted components,
which per Sec. 4.3 hold ``{sk_i, pk_1..pk_n}``).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.crypto.hashing import cached_property
from repro.errors import CryptoError


@dataclass(frozen=True)
class PublicKey:
    """Verification half of a keypair."""

    owner: int
    commitment: str

    @cached_property
    def _mac_key(self) -> bytes:
        return self.commitment.encode()

    def verify_tag(self, payload: bytes, tag: str) -> bool:
        """Check a tag produced by the matching :class:`PrivateKey`.

        Verification recomputes the tag from the *commitment*; forging a tag
        without the secret would require inverting the commitment, which the
        simulation adversary is not given an API to do.
        """
        return hmac.compare_digest(
            hmac.digest(self._mac_key, payload, "sha256").hex(), tag)


@dataclass(frozen=True)
class PrivateKey:
    """Signing half of a keypair; possession == capability to sign."""

    owner: int
    _secret: bytes = field(repr=False)

    @cached_property
    def _commitment(self) -> str:
        return hashlib.sha256(b"commit:" + self._secret).hexdigest()

    @cached_property
    def _mac_key(self) -> bytes:
        return self._commitment.encode()

    def commitment(self) -> str:
        """Public commitment used by verifiers."""
        return self._commitment

    def sign_tag(self, payload: bytes) -> str:
        """Produce the authentication tag over ``payload``."""
        return hmac.digest(self._mac_key, payload, "sha256").hex()


@dataclass(frozen=True)
class KeyPair:
    """A node's keypair as produced by :func:`generate_keypairs`."""

    private: PrivateKey
    public: PublicKey


def generate_keypairs(node_ids: Iterable[int], seed: int = 0) -> Dict[int, KeyPair]:
    """Deterministically generate keypairs for a set of node ids."""
    pairs: Dict[int, KeyPair] = {}
    for nid in node_ids:
        secret = hashlib.sha256(f"sk/{seed}/{nid}".encode()).digest()
        private = PrivateKey(owner=nid, _secret=secret)
        public = PublicKey(owner=nid, commitment=private.commitment())
        pairs[nid] = KeyPair(private=private, public=public)
    return pairs


class Keyring:
    """The PKI: node id -> :class:`PublicKey`."""

    def __init__(self, public_keys: Dict[int, PublicKey]):
        #: node id -> key.  ``verify`` subscripts it directly (a memoised
        #: verdict must cost no call on the way); nobody writes to it.
        self.public_keys = dict(public_keys)

    @classmethod
    def from_keypairs(cls, pairs: Dict[int, KeyPair]) -> "Keyring":
        """Build the ring from generated keypairs."""
        return cls({nid: kp.public for nid, kp in pairs.items()})

    def public_key(self, node_id: int) -> PublicKey:
        """Look up a node's public key; raises :class:`CryptoError` if absent."""
        try:
            return self.public_keys[node_id]
        except KeyError:
            raise CryptoError(f"no public key registered for node {node_id}") from None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.public_keys

    def __len__(self) -> int:
        return len(self.public_keys)

    def node_ids(self) -> list[int]:
        """All registered node ids, sorted."""
        return sorted(self.public_keys)


__all__ = ["PublicKey", "PrivateKey", "KeyPair", "Keyring", "generate_keypairs"]
