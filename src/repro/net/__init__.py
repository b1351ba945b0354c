"""Simulated network substrate.

Reliable point-to-point channels between nodes (paper Sec. 3.1) with:

* latency profiles matching the paper's NetEm setup — LAN 0.1±0.02 ms RTT,
  WAN 40±0.2 ms RTT (:mod:`repro.net.latency`);
* a 10 Gbps serialization/bandwidth model (:mod:`repro.net.bandwidth`);
* the Dwork et al. partial-synchrony model — before GST the adversary may
  delay messages arbitrarily, after GST delivery within Δ is guaranteed
  (:mod:`repro.net.synchrony`);
* an adversary hook for drops, extra delays, partitions, and interception
  (:mod:`repro.net.adversary`).
"""

from repro.net.message import Envelope, wire_size
from repro.net.latency import LatencyProfile, LAN_PROFILE, WAN_PROFILE, FixedLatency
from repro.net.bandwidth import BandwidthModel
from repro.net.synchrony import PartialSynchrony
from repro.net.adversary import NetworkAdversary, LinkRule
from repro.net.faults import FaultRates, FaultVerdict, LinkFaultModel
from repro.net.network import Network, NetworkStats
from repro.net.transport import (
    AckPayload,
    ChannelStats,
    ReliableChannel,
    TransportConfig,
)

__all__ = [
    "Envelope",
    "wire_size",
    "LatencyProfile",
    "LAN_PROFILE",
    "WAN_PROFILE",
    "FixedLatency",
    "BandwidthModel",
    "PartialSynchrony",
    "NetworkAdversary",
    "LinkRule",
    "FaultRates",
    "FaultVerdict",
    "LinkFaultModel",
    "Network",
    "NetworkStats",
    "AckPayload",
    "ChannelStats",
    "ReliableChannel",
    "TransportConfig",
]
