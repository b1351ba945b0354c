"""Message envelopes and wire-size estimation.

Protocol layers send arbitrary payload objects; the network wraps them in
an :class:`Envelope` carrying routing metadata and an estimated wire size.
Wire size feeds both the bandwidth model (serialization delay) and the
per-message CPU base cost, which is what differentiates O(n) from O(n²)
protocols at scale.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

#: Fixed framing overhead per message (headers, type tags, lengths).
HEADER_BYTES = 64
#: Size of one signature on the wire (ECDSA P-256 DER ≈ 71 B, rounded).
SIGNATURE_BYTES = 72
#: Size of one hash / digest on the wire.
HASH_BYTES = 32


def wire_size(payload: Any) -> int:
    """Estimate the serialized size of a payload object in bytes.

    Payload classes may define ``wire_size()`` for an exact figure (blocks
    and certificates do); otherwise we walk common container shapes and fall
    back to a conservative constant for opaque scalars.
    """
    method = getattr(payload, "wire_size", None)
    if callable(method):
        return int(method())
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 4 + sum(wire_size(v) for v in payload)
    if isinstance(payload, dict):
        return 4 + sum(wire_size(k) + wire_size(v) for k, v in payload.items())
    return 32


def intern_size(payload: Any) -> int:
    """Estimate ``payload``'s envelope size and intern it on the object
    (``_env_size``): payloads are immutable, and one broadcast wraps the
    *same* object n−1 times — without the memo every destination re-walked
    its size recursively.  Payloads that reject attributes (slotted or
    builtin types) simply recompute each time."""
    size = HEADER_BYTES + wire_size(payload)
    try:
        object.__setattr__(payload, "_env_size", size)
    except (AttributeError, TypeError):
        pass
    return size


_envelope_ids = itertools.count(1)


class Envelope:
    """A routed message in flight.

    Slotted and hand-rolled: an n-way broadcast mints one envelope per
    destination, so per-instance ``__dict__`` overhead and dataclass
    ``__init__`` indirection were measurable at scale.  Field semantics:

    * ``frame`` — transport header (:class:`repro.net.transport.Frame`)
      or None when no reliable channel stamped the send.  Its estimated
      wire size is part of :data:`HEADER_BYTES`, so stamping never
      changes ``size``.
    * ``auth`` — HMAC-style integrity tag over the header (set by the
      sender when the fabric can corrupt; verified by the receiver).
    * ``corrupted`` — the fabric corrupted this copy in flight.
    * ``duplicate`` — this copy was duplicated by the fabric.
    """

    __slots__ = ("src", "dst", "payload", "size", "sent_at", "msg_id",
                 "frame", "auth", "corrupted", "duplicate")

    def __init__(self, src: int, dst: int, payload: Any, size: int,
                 sent_at: float, frame: Optional[Any] = None,
                 auth: Optional[str] = None, corrupted: bool = False,
                 duplicate: bool = False) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.sent_at = sent_at
        self.msg_id = next(_envelope_ids)
        self.frame = frame
        self.auth = auth
        self.corrupted = corrupted
        self.duplicate = duplicate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Envelope(src={self.src}, dst={self.dst}, "
                f"payload={self.payload!r}, size={self.size}, "
                f"sent_at={self.sent_at}, msg_id={self.msg_id})")

    @classmethod
    def make(cls, src: int, dst: int, payload: Any, sent_at: float) -> "Envelope":
        """Build an envelope, estimating wire size from the payload."""
        try:
            size = payload._env_size
        except AttributeError:
            size = intern_size(payload)
        return cls(src, dst, payload, size, sent_at)

    def fabric_duplicate(self) -> "Envelope":
        """A second in-flight copy of this envelope (fault-model
        duplication); gets its own ``msg_id`` but shares the frame."""
        return Envelope(
            src=self.src, dst=self.dst, payload=self.payload, size=self.size,
            sent_at=self.sent_at, frame=self.frame, auth=self.auth,
            corrupted=self.corrupted, duplicate=True,
        )

    def corrupt(self) -> None:
        """Flip bits in flight: the integrity tag no longer verifies."""
        self.corrupted = True
        if self.auth is not None:
            self.auth = "!" + self.auth


__all__ = ["Envelope", "wire_size", "intern_size", "HEADER_BYTES",
           "SIGNATURE_BYTES", "HASH_BYTES"]
