"""Probabilistic link-fault injection for the network fabric.

The paper assumes reliable authenticated channels (Sec. 3.1) and gets them
from TCP; the simulator got them from ``Network.send`` always delivering.
:class:`LinkFaultModel` removes that silent guarantee: every message
offered to the wire can be **dropped**, **duplicated**, **reordered**
(extra jittered delay), or **corrupted** at configurable rates, with
per-kind and per-link overrides.  The reliable-delivery transport
(:mod:`repro.net.transport`) is what wins delivery back, the way TCP does
for the paper's deployment.

Determinism: the model draws from a dedicated RNG stream forked off the
simulator seed (``fork_rng("linkfaults")``), so identical ``(config,
seed)`` runs inject identical faults, and a fault-free model performs *no*
draws at all — runs at loss=0 are bit-identical to runs without the model.

Draw order per message is fixed and documented (loss → duplication →
reorder delay → corruption), so adding a fault class never perturbs the
draws of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FaultRates:
    """Per-message fault probabilities for one link/kind bucket."""

    #: Probability the message is silently dropped.
    loss: float = 0.0
    #: Probability a second copy is delivered (slightly later).
    dup: float = 0.0
    #: Probability the message picks up extra jittered delay (reordering
    #: it behind messages sent after it).
    reorder: float = 0.0
    #: Probability the message body is corrupted in flight (must be
    #: *detected* by the receiver's integrity check, never masked).
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss", "dup", "reorder", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"fault rate {name}={value} outside [0, 1]")

    @property
    def active(self) -> bool:
        """True if any fault class can fire."""
        return (self.loss > 0.0 or self.dup > 0.0
                or self.reorder > 0.0 or self.corrupt > 0.0)


@dataclass(frozen=True)
class FaultVerdict:
    """What the fabric does to one offered message."""

    drop: bool = False
    duplicate: bool = False
    #: Extra delay on the primary copy (reordering).
    extra_delay_ms: float = 0.0
    #: Extra delay on the duplicate copy relative to the primary.
    dup_delay_ms: float = 0.0
    corrupt: bool = False
    #: Corrupt the duplicate copy (drawn independently of the primary).
    corrupt_dup: bool = False


_PASS = FaultVerdict()

#: Max extra delay a reordered message picks up (ms).
REORDER_JITTER_MS = 8.0
#: Max delay of a duplicate copy behind its primary (ms).
DUP_DELAY_MS = 4.0
#: Per-link override key: (src, dst) with None as a wildcard.
LinkKey = Tuple[Optional[int], Optional[int]]


class LinkFaultModel:
    """Deterministic, seeded per-link fault injection.

    ``per_link`` overrides (keyed ``(src, dst)``, ``(src, None)`` or
    ``(None, dst)``, most-specific first) take precedence over ``per_kind``
    overrides (keyed by payload type name), which take precedence over the
    base rates.  The model composes with :class:`~repro.net.adversary.
    NetworkAdversary`: the adversary rules run first (targeted, scheduled
    faults), the fault model second (background stochastic faults).
    """

    def __init__(
        self,
        loss: float = 0.0,
        dup: float = 0.0,
        reorder: float = 0.0,
        corrupt: float = 0.0,
        per_kind: Optional[Mapping[str, FaultRates]] = None,
        per_link: Optional[Mapping[LinkKey, FaultRates]] = None,
    ) -> None:
        self.base = FaultRates(loss=loss, dup=dup, reorder=reorder,
                               corrupt=corrupt)
        self.per_kind: Dict[str, FaultRates] = dict(per_kind or {})
        self.per_link: Dict[LinkKey, FaultRates] = dict(per_link or {})
        self._rng = None
        #: Verdict counters (observability; the network keeps wire stats).
        self.drops = 0
        self.duplicates = 0
        self.reorders = 0
        self.corruptions = 0

    # ------------------------------------------------------------------
    def bind(self, sim) -> "LinkFaultModel":
        """Fork this model's RNG stream off the simulator seed."""
        self._rng = sim.fork_rng("linkfaults")
        return self

    @property
    def active(self) -> bool:
        """True if any configured bucket can fire a fault."""
        if self.base.active:
            return True
        return any(r.active for r in self.per_kind.values()) or \
            any(r.active for r in self.per_link.values())

    @property
    def corrupt_possible(self) -> bool:
        """True if any bucket can corrupt (senders then seal envelopes)."""
        if self.base.corrupt > 0.0:
            return True
        return any(r.corrupt > 0.0 for r in self.per_kind.values()) or \
            any(r.corrupt > 0.0 for r in self.per_link.values())

    def rates_for(self, src: int, dst: int, kind: str) -> FaultRates:
        """The effective rates for one (link, kind) bucket."""
        per_link = self.per_link
        if per_link:
            for key in ((src, dst), (src, None), (None, dst)):
                rates = per_link.get(key)
                if rates is not None:
                    return rates
        rates = self.per_kind.get(kind)
        return rates if rates is not None else self.base

    # ------------------------------------------------------------------
    def verdict(self, src: int, dst: int, kind: str) -> FaultVerdict:
        """Draw this message's fate.  Fixed draw order: loss first (a
        dropped message draws nothing else), then duplication, reorder
        delay, and corruption (primary, then the duplicate copy)."""
        rates = self.rates_for(src, dst, kind)
        if not rates.active:
            return _PASS
        rng = self._rng
        if rng is None:
            raise ConfigurationError(
                "LinkFaultModel used before bind(sim) seeded its RNG")
        if rates.loss > 0.0 and rng.random() < rates.loss:
            self.drops += 1
            return FaultVerdict(drop=True)
        duplicate = rates.dup > 0.0 and rng.random() < rates.dup
        extra = 0.0
        if rates.reorder > 0.0 and rng.random() < rates.reorder:
            extra = rng.uniform(0.0, REORDER_JITTER_MS)
            self.reorders += 1
        corrupt = rates.corrupt > 0.0 and rng.random() < rates.corrupt
        corrupt_dup = False
        dup_delay = 0.0
        if duplicate:
            self.duplicates += 1
            dup_delay = rng.uniform(0.0, DUP_DELAY_MS)
            corrupt_dup = rates.corrupt > 0.0 and rng.random() < rates.corrupt
        if corrupt:
            self.corruptions += 1
        if corrupt_dup:
            self.corruptions += 1
        if not (duplicate or extra or corrupt):
            return _PASS
        return FaultVerdict(duplicate=duplicate, extra_delay_ms=extra,
                            dup_delay_ms=dup_delay, corrupt=corrupt,
                            corrupt_dup=corrupt_dup)


__all__ = ["FaultRates", "FaultVerdict", "LinkFaultModel"]
