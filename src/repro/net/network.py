"""The network fabric.

Combines latency profile, bandwidth model, partial synchrony, the
adversary, the probabilistic link-fault model, and the reliable-delivery
transport into a single ``send``/``send_outbox`` API used by every protocol.
Delivery invokes the destination endpoint's ``deliver(envelope)`` method
(consensus replicas and clients both implement it).

Fault layering, in order, for every offered message:

1. :class:`~repro.net.adversary.NetworkAdversary` — targeted, scheduled
   interference (partitions, link rules);
2. :class:`~repro.net.faults.LinkFaultModel` — background stochastic
   loss/duplication/reordering/corruption;
3. bandwidth serialization, latency sampling, partial-synchrony shaping.

When a :class:`~repro.net.transport.TransportConfig` is supplied, every
attached endpoint gets a :class:`~repro.net.transport.ReliableChannel`
that wins delivery back under 1–3 (see :mod:`repro.net.transport`).

Statistics (message and byte counts, per-link and per-kind, and the
adversary/fault/undeliverable drop split) feed Table 1's
message-complexity measurements and the chaos reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Protocol

from repro.errors import NetworkError, SimulationError
from repro.net.adversary import NetworkAdversary
from repro.net.bandwidth import BandwidthModel
from repro.net.faults import LinkFaultModel
from repro.net.latency import LAN_PROFILE, MIN_ONE_WAY_MS, LatencyProfile
from repro.net.message import Envelope, intern_size
from repro.net.synchrony import PartialSynchrony
from repro.net.transport import (
    ReliableChannel,
    TransportConfig,
    frame_intact,
    seal_envelope,
)
from repro.sim.loop import Simulator


class Endpoint(Protocol):
    """Anything attachable to the network."""

    def deliver(self, envelope: Envelope) -> None:
        """Handle an arriving message."""


@dataclass
class NetworkStats:
    """Aggregate traffic counters.

    Drops are split by cause — adversary rules, the stochastic fault
    model, and undeliverable (destination detached) — because a chaos
    report must say *who* lost the message; ``messages_dropped`` sums
    them for backward compatibility.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    #: Dropped by an adversary rule or partition (targeted interference).
    adversary_dropped: int = 0
    #: Dropped by the probabilistic link-fault model (background loss).
    fault_dropped: int = 0
    #: Dropped because the destination was detached at arrival time.
    undeliverable_dropped: int = 0
    #: Second copies created by the fault model (not sender traffic).
    fault_duplicated: int = 0
    #: Fabric-duplicated copies that reached an application endpoint
    #: (with a transport installed this stays ~0: dedup suppresses them).
    duplicates_delivered: int = 0
    #: Copies corrupted in flight by the fault model.
    fault_corrupted: int = 0
    #: Arrivals rejected by the receiver's integrity check (detected
    #: corruption — never silently delivered).
    corrupt_rejected: int = 0
    bytes_sent: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def messages_dropped(self) -> int:
        """All drops, regardless of cause."""
        return (self.adversary_dropped + self.fault_dropped
                + self.undeliverable_dropped)


class Network:
    """Latency-modelled message fabric with optional loss + transport."""

    def __init__(
        self,
        sim: Simulator,
        latency=LAN_PROFILE,
        bandwidth: Optional[BandwidthModel] = None,
        synchrony: Optional[PartialSynchrony] = None,
        adversary: Optional[NetworkAdversary] = None,
        faults: Optional[LinkFaultModel] = None,
        transport: Optional[TransportConfig] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth if bandwidth is not None else BandwidthModel()
        self.synchrony = synchrony if synchrony is not None else PartialSynchrony.always_synchronous()
        self.adversary = adversary if adversary is not None else NetworkAdversary()
        self.faults = faults.bind(sim) if faults is not None else None
        self.transport = transport
        self.stats = NetworkStats()
        self._endpoints: Dict[int, Endpoint] = {}
        self._channels: Dict[int, ReliableChannel] = {}
        self._seal_sends = faults is not None and faults.corrupt_possible
        self._rng = sim.fork_rng("network")
        self._obs = sim.obs
        # Geo-aware profiles expose per-link sampling; flat ones don't.  A
        # Gaussian profile is drawn in the send loop from its (mean, sigma).
        self._sample_link = getattr(latency, "sample_link", None)
        self._gaussian = (latency.rtt_ms / 2.0, latency.jitter_ms / 2.0) \
            if type(latency) is LatencyProfile else None

    # ------------------------------------------------------------------
    def attach(self, node_id: int, endpoint: Endpoint) -> None:
        """Register an endpoint under ``node_id`` (replacing any previous)."""
        self._endpoints[node_id] = endpoint
        if self.transport is not None:
            channel = self._channels.get(node_id)
            if channel is None:
                channel = ReliableChannel(self, node_id, self.transport)
                self._channels[node_id] = channel
            channel.endpoint = endpoint

    def detach(self, node_id: int) -> None:
        """Remove an endpoint; traffic to it is dropped until re-attached."""
        self._endpoints.pop(node_id, None)

    def is_attached(self, node_id: int) -> bool:
        """Is an endpoint currently registered under ``node_id``?"""
        return node_id in self._endpoints

    def endpoints(self) -> list[int]:
        """Currently attached node ids, sorted."""
        return sorted(self._endpoints)

    def channel(self, node_id: int) -> Optional[ReliableChannel]:
        """The reliable channel of ``node_id`` (None without transport)."""
        return self._channels.get(node_id)

    def reset_channel(self, node_id: int) -> None:
        """Reset ``node_id``'s transport state (host reboot)."""
        channel = self._channels.get(node_id)
        if channel is not None:
            channel.reset()

    def transport_totals(self) -> Dict[str, int]:
        """Summed :class:`~repro.net.transport.ChannelStats` counters
        across every channel (empty without transport)."""
        totals: Dict[str, int] = {}
        for node_id in sorted(self._channels):
            self._channels[node_id].stats.add_into(totals)
        return totals

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any, cause: int = 0) -> None:
        """Send one message; the fabric delivers it unless the adversary,
        the fault model, or a detached endpoint interferes.

        ``cause`` is the id of the work span that queued the message
        (0 = unknown); it parents the flight's net span when tracing.
        """
        self.send_outbox(src, ((dst, payload),), cause)

    def transmit(self, envelope: Envelope, cause: int = 0) -> None:
        """Put an already stamped envelope on the wire again (a channel
        retransmission): it re-faces the adversary, the fault model, and
        fresh latency draws, exactly like the original copy did."""
        self.send_outbox(envelope.src, ((envelope.dst, envelope.payload),),
                         cause, stamped=envelope)

    def send_outbox(self, src: int, outbox, cause: int = 0, loopback=None,
                    stamped: Optional[Envelope] = None) -> None:
        """Send each ``(dst, payload)`` of ``outbox`` from ``src``, in order:
        the one body behind :meth:`send`, :meth:`transmit` and a replica's
        flush.

        An entry is finished before the next is begun — envelope built (so
        ``msg_id`` follows outbox order), stamped by the sender's channel,
        then adversary, fault model, serialization, latency and the
        delivery event — so every stream is drawn as message-by-message
        sends would draw it.  ``loopback(envelope, cause)``, when given,
        takes the entries addressed to ``src`` itself: they skip the fabric
        but keep their place in the ``msg_id`` and event order.
        ``stamped`` is the ready envelope of a one-entry retransmission.
        """
        if stamped is None and src not in self._endpoints:
            raise NetworkError(f"sender {src} is not attached to the network")
        sim = self.sim
        now = sim.now
        push = sim.queue.push_fast
        deliver = self._deliver
        stats = self.stats
        by_kind = stats.by_kind
        adversary = self.adversary
        # An idle adversary is not asked: nothing in this loop installs one.
        verdict = adversary.verdict if (
            adversary.intercept is not None or adversary.rules
            or adversary._partitions) else None
        faults = self.faults
        bandwidth = self.bandwidth
        bytes_per_ms = bandwidth.bytes_per_ms
        tx_free_at = bandwidth._tx_free_at
        nic_bytes = bandwidth.bytes_sent
        sample_link = self._sample_link
        sample = self.latency.sample
        gaussian = self._gaussian
        synchrony = self.synchrony
        # Before GST the synchrony model shapes each delay; after it, Δ caps it.
        pre_gst = synchrony.actual_delay if now < synchrony.gst_ms else None
        delta = synchrony.delta_ms
        rng = self._rng
        gauss = rng.gauss
        obs = self._obs
        seal = self._seal_sends
        channels = self._channels  # empty without a transport
        channel = channels.get(src) if channels and stamped is None else None
        for dst, payload in outbox:
            envelope = stamped
            if envelope is None:
                try:
                    size = payload._env_size
                except AttributeError:
                    size = intern_size(payload)
                envelope = Envelope(src, dst, payload, size, now)
                if dst == src and loopback is not None:
                    loopback(envelope, cause)
                    continue
                if channel is not None:
                    channel.stamp(envelope)
            if verdict is None:
                extra = 0.0
            else:
                extra = verdict(src, dst, payload, now)
                if extra is None:
                    stats.adversary_dropped += 1
                    continue
            size = envelope.size
            kind = payload.__class__.__name__
            stats.messages_sent += 1
            stats.bytes_sent += size
            try:
                by_kind[kind] += 1
            except KeyError:
                by_kind[kind] = 1
            if seal and envelope.auth is None:
                seal_envelope(envelope)
            fate = faults.verdict(src, dst, kind) if faults is not None else None
            # NIC serialization occupies the sender's transmit queue...
            if bytes_per_ms > 0:
                try:
                    free_at = tx_free_at[src]
                    nic_bytes[src] += size
                except KeyError:  # the node's first send
                    free_at = tx_free_at.get(src, 0.0)
                    nic_bytes[src] = nic_bytes.get(src, 0) + size
                departure = (now if now > free_at else free_at) \
                    + size / bytes_per_ms
                tx_free_at[src] = departure
            else:
                departure = now
            # ...then propagation (+ partial-synchrony shaping + adversary delay).
            if sample_link is not None:
                delay = sample_link(src, dst, rng)
            elif gaussian is not None:
                delay = gauss(*gaussian)
                if delay < MIN_ONE_WAY_MS:
                    delay = MIN_ONE_WAY_MS
            else:
                delay = sample(rng)
            if pre_gst is not None:
                delay = pre_gst(src, dst, now, delay, rng)
            elif delta < delay:
                delay = delta
            arrival = departure + delay + extra

            if fate is not None and (fate.drop or fate.duplicate
                                     or fate.extra_delay_ms or fate.corrupt):
                arrival += fate.extra_delay_ms
                copy = envelope.fabric_duplicate() if fate.duplicate else None
                if fate.corrupt:
                    envelope.corrupt()
                    stats.fault_corrupted += 1
                if copy is not None:
                    if fate.corrupt_dup:
                        copy.corrupt()
                        stats.fault_corrupted += 1
                    stats.fault_duplicated += 1
                    dup_arrival = arrival + fate.dup_delay_ms
                    sim.schedule_at_fast(dup_arrival, deliver, copy)
                    if obs.enabled:
                        obs.net_span(cause, copy.msg_id, src, dst, kind,
                                     now, dup_arrival, size,
                                     duplicate=True)
                if fate.drop:
                    stats.fault_dropped += 1
                    if obs.enabled:
                        obs.instant("net_loss", src, now, dst=dst, kind=kind)
                    continue

            if arrival < now:
                raise SimulationError(
                    f"cannot schedule into the past (time={arrival}, now={now})")
            push(arrival, deliver, (envelope,))
            if obs.enabled:
                obs.net_span(cause, envelope.msg_id, src, dst, kind, now,
                             arrival, size, retransmit=stamped is not None)

    def _deliver(self, envelope: Envelope) -> None:
        try:
            endpoint = self._endpoints[envelope.dst]
        except KeyError:
            # Destination crashed/detached while the message was in flight.
            self.stats.undeliverable_dropped += 1
            return
        channels = self._channels
        channel = channels.get(envelope.dst) if channels else None
        if envelope.corrupted or (envelope.auth is not None
                                  and not frame_intact(envelope)):
            # Detected corruption: counted, never delivered, never ACKed —
            # the sender's retransmission (if any) repairs the stream.
            self.stats.corrupt_rejected += 1
            if channel is not None:
                channel.stats.corrupt_rejected += 1
            if self._obs.enabled:
                self._obs.instant("net_corrupt_rejected", envelope.dst,
                                  self.sim.now, src=envelope.src,
                                  kind=type(envelope.payload).__name__)
            return
        if channel is not None and not channel.receive(envelope):
            return  # consumed by the transport (ACK) or suppressed (dup)
        if envelope.duplicate:
            self.stats.duplicates_delivered += 1
        self.stats.messages_delivered += 1
        endpoint.deliver(envelope)


__all__ = ["Network", "NetworkStats", "Endpoint"]
