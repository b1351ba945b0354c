"""The canonical encoding, ``digest_of`` and the seal tag equal the
streaming reference encoder.

Digests feed signed statements and sealed-blob tags, so the encoding's
bytes are frozen (``tests/unit/test_crypto.py`` pins a few by hand).
:func:`oracle` below is the recursive ``_encode_into`` the encoder was
first written as, kept verbatim: one ``emit`` per token.  Every value
shape the encoder branches on — ``None``, bools, ints of any size and
sign, ``IntEnum`` members, floats, non-ASCII strings, bytes, lists,
tuples, dicts and an object with only a ``repr`` — is generated, nested,
and held to it.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Callable

from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import _canonical, digest_of
from repro.tee.sealing import SealingKey, seal, unseal


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


def oracle(value: Any) -> bytes:
    """The reference bytes of ``value``."""
    parts: list[bytes] = []
    _encode_into(value, parts.append)
    return b"".join(parts)


class Phase(enum.IntEnum):
    PREPARE = 1
    COMMIT = 2
    NEGATIVE = -7


class Tag(str, enum.Enum):
    """A ``str`` subclass: encoded as its text."""

    PREP = "PREP"
    ACCENTED = "é✓"


@dataclass(frozen=True)
class Opaque:
    """No encoding of its own: only its ``repr`` reaches the bytes."""

    name: str
    rank: int


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.sampled_from(list(Phase)),
    st.sampled_from(list(Tag)),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.sampled_from(["", "PREP", "ключ", "é", "✓ ok", "\x00"]),
    st.binary(max_size=8),
    st.builds(Opaque, st.text(max_size=4), st.integers(-3, 3)),
)

dict_keys = st.one_of(st.text(max_size=4), st.integers(-5, 5), st.booleans())

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(dict_keys, inner, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=400, deadline=None)
@given(values)
def test_canonical_equals_the_streaming_encoder(value):
    assert _canonical(value) == oracle(value)


@settings(max_examples=300, deadline=None)
@given(st.lists(values, max_size=5))
def test_digest_of_hashes_the_joined_encodings(parts):
    joined = b"".join(oracle(p) for p in parts)
    assert digest_of(*parts) == hashlib.sha256(joined).hexdigest()


def reference_tag(key: SealingKey, payload: Any, version: int) -> str:
    """The seal tag as first written: an HMAC-SHA256 over identity,
    payload digest and version."""
    payload_digest = hashlib.sha256(oracle(payload)).hexdigest()
    msg = f"{key.enclave_identity}|{payload_digest}|{version}".encode()
    return hmac.new(key._secret, msg, hashlib.sha256).hexdigest()


@settings(max_examples=200, deadline=None)
@given(identity=st.text(min_size=1, max_size=12), payload=values,
       version=st.integers(min_value=0, max_value=2 ** 40))
def test_seal_tag_is_the_reference_hmac(identity, payload, version):
    key = SealingKey.derive(identity)
    blob = seal(key, payload, version)
    assert blob.tag == reference_tag(key, payload, version)
    assert unseal(key, blob) is payload


def test_a_sealed_checker_state_tag_is_the_reference_hmac():
    """The shape every -R update seals: ``(version, state tuple)``."""
    key = SealingKey.derive("damysus-checker/2")
    payload = (7, (4, False, True, False, 3, "ab" * 32))
    assert seal(key, payload, 9).tag == reference_tag(key, payload, 9)
