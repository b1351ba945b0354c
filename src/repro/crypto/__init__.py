"""Simulated cryptography with cost accounting.

The protocols in this library need three things from cryptography:

1. **Unforgeability** — a node (or the adversary) cannot produce a valid
   signature for a key it does not hold.  We get this by making the private
   key a capability object: signing derives a keyed-BLAKE2 tag from secret
   material that only the ``PrivateKey`` object holds.
2. **Binding** — a signature authenticates exactly one message.
3. **Cost** — ECDSA sign/verify dominate LAN-scale consensus CPU time, so
   every operation reports a calibrated sim-time cost via
   :class:`CryptoProfile` that callers charge to their CPU model.
"""

from repro.crypto.hashing import sha256_hex, digest_of, GENESIS_HASH
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, Keyring, generate_keypairs
from repro.crypto.signatures import Signature, SignatureList, CryptoProfile, sign, verify

__all__ = [
    "sha256_hex",
    "digest_of",
    "GENESIS_HASH",
    "KeyPair",
    "PrivateKey",
    "PublicKey",
    "Keyring",
    "generate_keypairs",
    "Signature",
    "SignatureList",
    "CryptoProfile",
    "sign",
    "verify",
]
