"""Reliable-delivery transport: ACK + retransmit + dedup per endpoint.

The protocols assume the paper's reliable authenticated channels
(Sec. 3.1).  Once :class:`~repro.net.faults.LinkFaultModel` makes the
fabric lossy, :class:`ReliableChannel` wins delivery back the way the
paper's TCP deployment does:

* per-destination **sequence numbers** stamped on every data envelope;
* **ACKs** — piggybacked on the next data envelope to the peer, or sent
  standalone after a short delayed-ack window;
* **retransmit timers** with exponential backoff, a cap, and
  deterministic jitter (drawn from a per-node forked RNG stream);
* a **bounded in-flight window** with oldest-first eviction accounting;
* receiver-side **dedup** state (cumulative ack + out-of-order set) so a
  duplicated or retransmitted frame is delivered to the application at
  most once.  Accepted frames are handed up immediately even when they
  arrive out of order — the protocols are reorder-tolerant, and holding
  frames back would change delivery order versus the loss-free baseline.

Every runner installs a transport exactly when it installs a
:class:`~repro.net.faults.LinkFaultModel`, and a channel always ACKs and
retransmits; a fault-free run has no transport at all and stays
bit-identical to the pre-fault-layer baseline.  The transport header is
part of the existing per-message framing allowance
(:data:`~repro.net.message.HEADER_BYTES`), so stamping never changes
estimated wire sizes.

Corruption is detected, never masked: when the fault model can corrupt,
senders seal each envelope with an integrity tag over its header
(HMAC-style, computed with the canonical digest); a corrupted envelope
fails :func:`frame_intact` at the receiver, is counted, and is never
ACKed — the sender's retransmission repairs the stream.

Crash semantics: a rebooting node resets its channel (new epoch, in-flight
frames abandoned); receivers key dedup state by ``(src, epoch)`` so the
fresh incarnation's stream starts clean.  Receiver dedup state survives
the receiver's own reboot — the channel models the kernel-level transport
that outlives the replica process in the paper's deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.crypto.hashing import digest_of
from repro.errors import ConfigurationError

#: (epoch, cumulative ack, sorted out-of-order seqs) for one stream.
AckInfo = Tuple[int, int, Tuple[int, ...]]


@dataclass(frozen=True)
class TransportConfig:
    """Knobs for every :class:`ReliableChannel` in one network."""

    #: Initial retransmission timeout.
    base_rto_ms: float = 30.0
    #: Multiplier applied to a frame's RTO after each retransmission.
    backoff: float = 2.0
    #: Backoff cap.
    max_rto_ms: float = 500.0
    #: Deterministic jitter: each armed RTO is scaled by
    #: ``1 + jitter * U(0, 1)`` from the channel's forked RNG stream.
    jitter: float = 0.1
    #: Max in-flight (un-ACKed) frames per destination; the oldest frame
    #: is evicted (and counted) when a send would exceed it.
    window: int = 256
    #: Delayed-ACK window: how long a receiver waits for a piggyback
    #: opportunity before sending a standalone ACK.
    ack_delay_ms: float = 4.0

    def __post_init__(self) -> None:
        if self.base_rto_ms <= 0 or self.max_rto_ms < self.base_rto_ms:
            raise ConfigurationError("invalid transport RTO configuration")
        if self.backoff < 1.0 or self.jitter < 0.0 or self.window < 1:
            raise ConfigurationError("invalid transport configuration")


@dataclass
class Frame:
    """Transport header riding on an :class:`~repro.net.message.Envelope`.

    Estimated wire size is folded into the fixed per-message framing
    allowance (``HEADER_BYTES``) — stamping never changes envelope sizes.
    """

    epoch: int
    #: Stream sequence number; None for unsequenced (ACK-only) frames.
    seq: Optional[int]
    #: Piggybacked ACK for the reverse stream.
    ack: Optional[AckInfo] = None
    #: How many times this frame has been retransmitted.
    retransmit: int = 0


@dataclass(frozen=True)
class AckPayload:
    """A standalone transport ACK (a real message: charged and lossy)."""

    epoch: int
    cum: int
    sacks: Tuple[int, ...] = ()

    def wire_size(self) -> int:
        """Epoch + cumulative ack + one u64 per out-of-order seq."""
        return 16 + 8 * len(self.sacks)


# ----------------------------------------------------------------------
# Envelope integrity (HMAC-style seal over the header)
# ----------------------------------------------------------------------
def seal_envelope(envelope) -> None:
    """Attach an integrity tag over the envelope header."""
    envelope.auth = _expected_tag(envelope)


def frame_intact(envelope) -> bool:
    """Does the envelope pass its integrity check?

    Unsealed envelopes fall back to the fabric's corruption flag (the
    no-transport path still *detects*, it just can't verify a tag).
    """
    if envelope.corrupted:
        return False
    if envelope.auth is None:
        return True
    return envelope.auth == _expected_tag(envelope)


def _expected_tag(envelope) -> str:
    frame = envelope.frame
    return digest_of(
        "frame-auth", envelope.src, envelope.dst,
        frame.epoch if frame is not None else -1,
        frame.seq if frame is not None and frame.seq is not None else -1,
        type(envelope.payload).__name__, envelope.size,
    )


# ----------------------------------------------------------------------
# Channel state
# ----------------------------------------------------------------------
@dataclass
class ChannelStats:
    """Per-endpoint transport counters."""

    frames_sent: int = 0
    retransmissions: int = 0
    acks_sent: int = 0
    acks_piggybacked: int = 0
    frames_acked: int = 0
    dup_suppressed: int = 0
    out_of_order: int = 0
    corrupt_rejected: int = 0
    window_evictions: int = 0
    stale_epoch_dropped: int = 0
    dead_endpoint_dropped: int = 0

    def add_into(self, totals: Dict[str, int]) -> None:
        """Accumulate this channel's counters into ``totals``."""
        for name in self.__dataclass_fields__:
            totals[name] = totals.get(name, 0) + getattr(self, name)


@dataclass
class _InFlight:
    """One un-ACKed data frame awaiting retransmission or ACK."""

    payload: object
    rto_ms: float
    next_due: float
    retries: int = 0


@dataclass
class _TxPeer:
    """Sender-side state toward one destination."""

    next_seq: int = 1
    inflight: Dict[int, _InFlight] = field(default_factory=dict)
    #: Pending retransmit Event (or None).
    timer: Optional[object] = None


@dataclass
class _RxPeer:
    """Receiver-side dedup state for one (source, epoch) stream."""

    epoch: int
    cum: int = 0
    sacks: Set[int] = field(default_factory=set)

    def ack_info(self) -> AckInfo:
        return (self.epoch, self.cum, tuple(sorted(self.sacks)))


class ReliableChannel:
    """One endpoint's reliable-delivery state, owned by the network.

    The network calls :meth:`stamp` on every outgoing envelope and
    :meth:`receive` on every arriving one; everything else (ACK timers,
    retransmissions) the channel drives itself through the simulator.
    """

    def __init__(self, network, node_id: int, config: TransportConfig) -> None:
        self.network = network
        self.node_id = node_id
        self.config = config
        self.endpoint = None
        #: Incarnation of this endpoint's outgoing streams; bumped by
        #: :meth:`reset` (host reboot) to abandon stale in-flight frames.
        self.epoch = 0
        self.stats = ChannelStats()
        self._tx: Dict[int, _TxPeer] = {}
        self._rx: Dict[int, _RxPeer] = {}
        self._pending_acks: Set[int] = set()
        self._ack_timers: Dict[int, object] = {}
        self._rng = None
        self._generation = 0  # guards timer callbacks across resets

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Host reboot: abandon in-flight frames, start a new epoch.

        Receiver-side dedup state is kept (see the module docstring) so
        peers' live streams are not re-delivered from scratch.
        """
        self.epoch += 1
        self._generation += 1
        sim = self.network.sim
        for peer in self._tx.values():
            if peer.timer is not None:
                sim.cancel(peer.timer)
        self._tx.clear()
        for event in self._ack_timers.values():
            sim.cancel(event)
        self._ack_timers.clear()
        self._pending_acks.clear()

    def _endpoint_up(self) -> bool:
        endpoint = self.endpoint
        return endpoint is not None and getattr(endpoint, "alive", True)

    def _jittered(self, rto_ms: float) -> float:
        jitter = self.config.jitter
        if jitter <= 0.0:
            return rto_ms
        if self._rng is None:
            self._rng = self.network.sim.fork_rng(
                f"transport/{self.node_id}")
        return rto_ms * (1.0 + jitter * self._rng.random())

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def stamp(self, envelope) -> None:
        """Attach the transport header to an outgoing envelope and track
        the frame until it is ACKed (the estimated size never changes)."""
        payload = envelope.payload
        if isinstance(payload, AckPayload):
            envelope.frame = Frame(epoch=self.epoch, seq=None)
            return
        peer = self._tx.get(envelope.dst)
        if peer is None:
            peer = self._tx[envelope.dst] = _TxPeer()
        seq = peer.next_seq
        peer.next_seq += 1
        frame = Frame(epoch=self.epoch, seq=seq)
        envelope.frame = frame
        self.stats.frames_sent += 1
        if envelope.dst in self._pending_acks:
            rx = self._rx.get(envelope.dst)
            if rx is not None:
                frame.ack = rx.ack_info()
                self.stats.acks_piggybacked += 1
            self._pending_acks.discard(envelope.dst)
            timer = self._ack_timers.pop(envelope.dst, None)
            if timer is not None:
                self.network.sim.cancel(timer)
        if len(peer.inflight) >= self.config.window:
            oldest = next(iter(peer.inflight))
            del peer.inflight[oldest]
            self.stats.window_evictions += 1
        rto = self._jittered(self.config.base_rto_ms)
        peer.inflight[seq] = _InFlight(
            payload=payload, rto_ms=rto,
            next_due=self.network.sim.now + rto)
        self._arm_retransmit(envelope.dst, peer)

    def _arm_retransmit(self, peer_id: int, peer: _TxPeer) -> None:
        sim = self.network.sim
        if peer.timer is not None:
            sim.cancel(peer.timer)
            peer.timer = None
        if not peer.inflight:
            return
        # Deadlines can be overdue already (a crashed sender skips its
        # retransmissions but keeps the frames); never schedule into the past.
        deadline = max(min(f.next_due for f in peer.inflight.values()),
                       sim.now)
        generation = self._generation
        # No label: a channel re-arms this timer on every send, and the
        # old f-string label allocation dominated the stamp path.
        peer.timer = sim.schedule_at(
            deadline,
            lambda: self._retransmit_due(peer_id, generation))

    def _retransmit_due(self, peer_id: int, generation: int) -> None:
        if generation != self._generation:
            return
        peer = self._tx.get(peer_id)
        if peer is None:
            return
        peer.timer = None
        if not self._endpoint_up():
            # Crashed sender: stop retransmitting; reboot resets anyway.
            return
        sim = self.network.sim
        now = sim.now
        config = self.config
        from repro.net.message import Envelope

        for seq in list(peer.inflight):
            frame_state = peer.inflight.get(seq)
            if frame_state is None or frame_state.next_due > now + 1e-9:
                continue
            frame_state.retries += 1
            frame_state.rto_ms = min(frame_state.rto_ms * config.backoff,
                                     config.max_rto_ms)
            frame_state.next_due = now + self._jittered(frame_state.rto_ms)
            self.stats.retransmissions += 1
            envelope = Envelope.make(src=self.node_id, dst=peer_id,
                                     payload=frame_state.payload,
                                     sent_at=now)
            envelope.frame = Frame(epoch=self.epoch, seq=seq,
                                   retransmit=frame_state.retries)
            self.network.transmit(envelope)
        self._arm_retransmit(peer_id, peer)

    def _process_ack(self, peer_id: int, ack: AckInfo) -> None:
        epoch, cum, sacks = ack
        if epoch != self.epoch:
            return  # ACK for a previous incarnation's stream
        peer = self._tx.get(peer_id)
        if peer is None or not peer.inflight:
            return
        sack_set = set(sacks)
        cleared = [seq for seq in peer.inflight
                   if seq <= cum or seq in sack_set]
        for seq in cleared:
            del peer.inflight[seq]
        if cleared:
            self.stats.frames_acked += len(cleared)
            self._arm_retransmit(peer_id, peer)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, envelope) -> bool:
        """Process one arriving envelope; True iff it should be handed to
        the application endpoint."""
        payload = envelope.payload
        if isinstance(payload, AckPayload):
            self._process_ack(envelope.src,
                              (payload.epoch, payload.cum, payload.sacks))
            return False  # consumed by the transport
        frame = envelope.frame
        if frame is None:
            return True  # pre-transport sender (mixed setups / tests)
        if frame.ack is not None:
            self._process_ack(envelope.src, frame.ack)
        if frame.seq is None:
            return True
        if not self._endpoint_up():
            # Never record (or ACK) a frame the dead process cannot see:
            # the sender keeps retransmitting until the host is back.
            self.stats.dead_endpoint_dropped += 1
            return False
        rx = self._rx.get(envelope.src)
        if rx is None or frame.epoch > rx.epoch:
            rx = self._rx[envelope.src] = _RxPeer(epoch=frame.epoch)
        elif frame.epoch < rx.epoch:
            self.stats.stale_epoch_dropped += 1
            return False
        self._note_ack_owed(envelope.src)
        seq = frame.seq
        if seq <= rx.cum or seq in rx.sacks:
            self.stats.dup_suppressed += 1
            return False
        if seq == rx.cum + 1:
            rx.cum += 1
            while rx.cum + 1 in rx.sacks:
                rx.sacks.discard(rx.cum + 1)
                rx.cum += 1
        else:
            rx.sacks.add(seq)
            self.stats.out_of_order += 1
        return True

    def _note_ack_owed(self, peer_id: int) -> None:
        if peer_id in self._pending_acks:
            return
        self._pending_acks.add(peer_id)
        generation = self._generation
        self._ack_timers[peer_id] = self.network.sim.schedule(
            self.config.ack_delay_ms,
            lambda: self._ack_due(peer_id, generation))

    def _ack_due(self, peer_id: int, generation: int) -> None:
        if generation != self._generation:
            return
        self._ack_timers.pop(peer_id, None)
        if peer_id not in self._pending_acks:
            return
        self._pending_acks.discard(peer_id)
        if not self._endpoint_up() or not self.network.is_attached(self.node_id):
            return  # the sender's retransmission will re-trigger the ACK
        rx = self._rx.get(peer_id)
        if rx is None:
            return
        self.stats.acks_sent += 1
        epoch, cum, sacks = rx.ack_info()
        self.network.send(self.node_id, peer_id,
                          AckPayload(epoch=epoch, cum=cum, sacks=sacks))


__all__ = [
    "AckPayload",
    "ChannelStats",
    "Frame",
    "ReliableChannel",
    "TransportConfig",
    "frame_intact",
    "seal_envelope",
]
