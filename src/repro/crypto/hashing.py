"""Hashing helpers.

Blocks, certificates, and sealed blobs are identified by SHA-256 hex
digests.  :func:`digest_of` canonicalizes arbitrary (nested) Python values
into a byte string before hashing, so two structurally equal values always
hash identically regardless of dict insertion order.

The canonical encoding is *streamable*: every container prefix carries the
element count (not the byte length), so the encoding of a sequence is
the concatenation of its parts' encodings.  :func:`digest_of` exploits
this — it is the hottest function in the simulator (every signature,
checker call, and block identity goes through it), so it encodes flat
parts in line and hashes the joined bytes once.  :func:`_canonical` does
the same one level down: it is one recursive function that returns
bytes, and a list or tuple encodes its flat members in line, recursing
only into containers and rarer types — a sealed checker state is one
call per nesting level.
The byte encoding itself is frozen, because digests feed signed
statements and sealing tags: ``tests/unit/test_crypto.py`` pins its
bytes by hand and ``tests/property/test_canonical_encoding.py`` holds it
to the one-emit-per-token encoder it was first written as.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable


def _canonical(value: Any) -> bytes:
    """Deterministic byte encoding of nested tuples/lists/dicts/scalars.

    A list or tuple encodes its flat ``str``/``int``/``bool``/``None``
    members in line and recurses only into containers and rarer types.
    """
    cls = value.__class__
    if cls is str:
        data = value.encode()
        return b"s%d:%s" % (len(data), data)
    if cls is int:
        return b"i%d" % value
    if value is None:
        return b"N"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if cls is tuple or cls is list or isinstance(value, (list, tuple)):
        return b"l%d:%s" % (len(value), b"".join([
            b"s%d:%s" % (len(d := v.encode()), d) if v.__class__ is str
            else b"i%d" % v if v.__class__ is int
            else b"N" if v is None
            else b"T" if v is True
            else b"F" if v is False
            else _canonical(v)
            for v in value]))
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return b"d%d:%s" % (len(items), b"".join(
            [_canonical(k) + _canonical(v) for k, v in items]))
    if isinstance(value, int):  # int subclasses (enum.IntEnum, ...)
        return b"i" + str(value).encode()
    if isinstance(value, float):
        return b"f" + repr(value).encode()
    if isinstance(value, str):
        data = value.encode()
        return b"s%d:" % len(data) + data
    if isinstance(value, bytes):
        return b"b%d:" % len(value) + value
    # Fall back to the object's stable string form (e.g. enums,
    # dataclasses that define __repr__); used only for trace metadata,
    # never consensus.
    return b"o" + repr(value).encode()


def sha256_hex(data: bytes) -> str:
    """SHA-256 of raw bytes, hex encoded."""
    return hashlib.sha256(data).hexdigest()


def digest_of(*parts: Any) -> str:
    """SHA-256 over the canonical encoding of ``parts``.

    Flat ``str``/``int`` parts — nearly every caller's shape — are encoded
    in line into one bytes object that is hashed once; anything else goes
    through :func:`_canonical`, whose streamable output concatenates to
    the same bytes.
    """
    return hashlib.sha256(b"".join([
        b"s%d:%s" % (len(d := p.encode()), d) if p.__class__ is str
        else b"i%d" % p if p.__class__ is int
        else _canonical(p)
        for p in parts])).hexdigest()


class cached_property:
    """A memoized attribute of an immutable object, computed at first read.

    What :func:`functools.cached_property` does, without the lock it takes
    on every first access (Python 3.11: six calls where two suffice):
    the first read calls ``__get__`` and the function and stores the
    value in the instance ``__dict__``, which later reads find before
    this non-data descriptor, at no call at all.  Blocks, signatures,
    statements and keys use it; they are immutable and never shared
    across threads, so a racing second computation could only store the
    same value.
    """

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: Any = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


#: Hash of the hard-coded genesis block (paper Sec. 4.2).
GENESIS_HASH = sha256_hex(b"repro/achilles/genesis")

__all__ = ["sha256_hex", "digest_of", "cached_property", "GENESIS_HASH"]
