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
parts in line and hashes the joined bytes once.
The byte encoding itself is frozen: ``tests/unit/test_crypto.py`` pins it
against a reference implementation, because digests feed signed statements.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable


def _encode_into(value: Any, emit: Callable[[bytes], Any]) -> None:
    """Stream the canonical encoding of ``value`` into ``emit``."""
    if value is None:
        emit(b"N")
    elif value is True:
        emit(b"T")
    elif value is False:
        emit(b"F")
    elif type(value) is int:
        emit(b"i%d" % value)
    elif type(value) is str:
        data = value.encode()
        emit(b"s%d:" % len(data))
        emit(data)
    elif type(value) is float:
        emit(b"f" + repr(value).encode())
    elif type(value) is bytes:
        emit(b"b%d:" % len(value))
        emit(value)
    elif isinstance(value, (list, tuple)):
        emit(b"l%d:" % len(value))
        for v in value:
            _encode_into(v, emit)
    elif isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        emit(b"d%d:" % len(items))
        for k, v in items:
            _encode_into(k, emit)
            _encode_into(v, emit)
    elif isinstance(value, bool):  # bool subclasses with odd identity
        emit(b"T" if value else b"F")
    elif isinstance(value, int):  # int subclasses (enum.IntEnum, ...)
        emit(b"i" + str(value).encode())
    elif isinstance(value, float):
        emit(b"f" + repr(value).encode())
    elif isinstance(value, str):
        data = value.encode()
        emit(b"s%d:" % len(data))
        emit(data)
    elif isinstance(value, bytes):
        emit(b"b%d:" % len(value))
        emit(value)
    else:
        # Fall back to the object's stable string form (e.g. enums,
        # dataclasses that define __repr__); used only for trace metadata,
        # never consensus.
        emit(b"o" + repr(value).encode())


def _canonical(value: Any) -> bytes:
    """Deterministic byte encoding of nested tuples/lists/dicts/scalars."""
    parts: list[bytes] = []
    _encode_into(value, parts.append)
    return b"".join(parts)


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
