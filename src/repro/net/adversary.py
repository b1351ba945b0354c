"""Network adversary controls.

The threat model (paper Sec. 3.1) gives the adversary full control over
corrupted nodes' operating systems: it can modify, reorder, and delay
network messages from/to TEEs.  For *honest-to-honest* links the reliable
channel assumption holds, but tests still need to create partitions and
targeted delays/drops to exercise view changes, recovery races, and the
Sec. 4.5 attack scenario.  :class:`NetworkAdversary` is that control plane.

Rules are evaluated in order; the first matching rule decides the fate of a
message.  A rule can drop, delay, or pass a message, and an optional
``intercept`` callback lets Byzantine test harnesses observe (copy) traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class LinkRule:
    """One match/action rule over (src, dst, payload).

    ``src``/``dst`` of ``None`` match any node.  ``predicate`` (if given)
    further filters on the payload object.  Action: ``drop=True`` discards;
    otherwise ``extra_delay_ms`` is added.  ``until_ms`` expires the rule.
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    predicate: Optional[Callable[[Any], bool]] = None
    drop: bool = False
    extra_delay_ms: float = 0.0
    until_ms: Optional[float] = None
    label: str = ""

    def matches(self, src: int, dst: int, payload: Any, now: float) -> bool:
        """Does this rule apply to the given message at time ``now``?"""
        if self.until_ms is not None and now >= self.until_ms:
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        if self.predicate is not None and not self.predicate(payload):
            return False
        return True


@dataclass(frozen=True)
class PartitionWindow:
    """Isolate ``group`` from everyone else during [at, until): the
    scheduled form of :meth:`NetworkAdversary.partition` that fault plans
    carry."""

    at_ms: float
    until_ms: float
    group: tuple[int, ...]


@dataclass(frozen=True)
class DelayWindow:
    """Add ``extra_ms`` to all src→dst traffic during [at, until): the
    scheduled form of :meth:`NetworkAdversary.delay_link`."""

    at_ms: float
    until_ms: float
    src: Optional[int]
    dst: Optional[int]
    extra_ms: float


@dataclass
class NetworkAdversary:
    """Ordered rule list + partition sets + interception hook."""

    rules: list[LinkRule] = field(default_factory=list)
    _partitions: list[set[int]] = field(default_factory=list)
    intercept: Optional[Callable[[int, int, Any], None]] = None
    dropped: int = 0

    # -- rule management -------------------------------------------------
    def add_rule(self, rule: LinkRule) -> LinkRule:
        """Append a rule (first match wins)."""
        self.rules.append(rule)
        return rule

    def drop_link(self, src: Optional[int], dst: Optional[int], until_ms: Optional[float] = None,
                  label: str = "") -> LinkRule:
        """Convenience: drop all src→dst traffic (None = wildcard)."""
        return self.add_rule(LinkRule(src=src, dst=dst, drop=True, until_ms=until_ms, label=label))

    def delay_link(self, src: Optional[int], dst: Optional[int], extra_ms: float,
                   until_ms: Optional[float] = None, label: str = "") -> LinkRule:
        """Convenience: add ``extra_ms`` to all src→dst traffic."""
        return self.add_rule(
            LinkRule(src=src, dst=dst, extra_delay_ms=extra_ms, until_ms=until_ms, label=label)
        )

    def remove_rule(self, rule: LinkRule) -> None:
        """Remove a previously added rule (no-op if already removed)."""
        if rule in self.rules:
            self.rules.remove(rule)

    def clear(self) -> None:
        """Drop all rules and partitions (network heals)."""
        self.rules.clear()
        self._partitions.clear()

    # -- partitions ------------------------------------------------------
    def partition(self, *groups: set[int]) -> None:
        """Split nodes into isolated groups; inter-group traffic is dropped.

        Nodes not named in any group can talk to everyone (they are not
        isolated) — name every node to get a full partition.
        """
        self._partitions = [set(g) for g in groups]

    def heal_partition(self) -> None:
        """Remove the partition."""
        self._partitions.clear()

    def _partitioned(self, src: int, dst: int) -> bool:
        src_group = next((g for g in self._partitions if src in g), None)
        dst_group = next((g for g in self._partitions if dst in g), None)
        if src_group is None or dst_group is None:
            return False
        return src_group is not dst_group

    # -- verdict ---------------------------------------------------------
    def verdict(self, src: int, dst: int, payload: Any, now: float) -> Optional[float]:
        """Decide a message's fate.

        Returns ``None`` to drop, otherwise the extra delay (≥ 0) to add.
        """
        if self.intercept is not None:
            self.intercept(src, dst, payload)
        if self._partitions and self._partitioned(src, dst):
            self.dropped += 1
            return None
        for rule in self.rules:
            if rule.matches(src, dst, payload, now):
                if rule.drop:
                    self.dropped += 1
                    return None
                return rule.extra_delay_ms
        return 0.0


__all__ = ["NetworkAdversary", "LinkRule", "PartitionWindow", "DelayWindow"]
