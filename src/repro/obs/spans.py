"""Causal span tracing (the core of ``repro.obs``).

:class:`SpanTracer` records **spans** — time intervals with parent links —
instead of the flat events in :mod:`repro.sim.trace`.  Three span kinds
carry the causal structure of a run:

* ``work`` — one CPU-accounted unit of work on a replica (a message
  handler or a timer task).  A work span remembers when the triggering
  message *arrived* (``attrs["arrival"]``), when the handler logic ran
  (``t0``, the dispatch instant), when its CPU window started
  (``attrs["cpu_start"]``) and when the charged cost finished (``t1``).
  Categorized costs charged inside the handler (ECALL transitions,
  crypto, sealing, persistent-counter writes) are kept as ordered
  ``parts`` tuples ``(bucket, name, cost_ms)``.
* ``net`` — one message flight, from the sender's transmit instant to
  arrival at the destination.  Its parent is the work span that queued
  the message, and the work span dispatched for the message points back
  at the net span — so walking ``parent`` links from any handler
  reconstructs the full causal chain across nodes.
* ``phase`` / ``mark`` — protocol-level intervals (recovery episodes)
  and instants (view changes, orphaned charges).

Everything here is deterministic: span ids are a simple counter assigned
in event order, no wall-clock or RNG is consulted, and :meth:`digest`
canonically hashes the whole trace — two runs of the same (spec, seed)
produce byte-identical digests.

The tracer is **disabled by default** and every emission site in the
simulator guards on :attr:`enabled`, keeping the hot path free of
tracing overhead when off (one attribute read + branch per site).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.crypto.hashing import digest_of

#: Cost-part kinds; each maps 1:1 onto a critical-path bucket.
PART_KINDS = ("counter", "crypto", "ecall", "storage")

#: Bound on the in-flight message route table (msg_id -> net span id).
#: Routes are popped at dispatch; entries for messages that are dropped
#: in flight (or delivered to non-replica endpoints) are pruned oldest
#: first once the table exceeds this size.
_MAX_ROUTES = 8192


@dataclass(frozen=True)
class Span:
    """One closed span.  ``parts`` is only populated on ``work`` spans."""

    sid: int
    parent: Optional[int]
    node: Optional[int]
    kind: str  # "work" | "net" | "phase" | "mark"
    name: str
    t0: float
    t1: float
    attrs: dict[str, Any] = field(default_factory=dict)
    parts: tuple = ()

    @property
    def duration(self) -> float:
        """Span length in simulated milliseconds."""
        return self.t1 - self.t0


@dataclass
class BlockRecord:
    """Per-block lifecycle: proposal, milestones, first commit.

    ``propose_sid``/``commit_sid`` anchor the critical-path walk: they
    identify the work spans inside which the proposal decision and the
    first commit were recorded.
    """

    hash: str
    view: int
    proposer: int
    txs: int
    t_propose: float
    propose_sid: Optional[int]
    t_commit: Optional[float] = None
    commit_sid: Optional[int] = None
    commit_node: Optional[int] = None
    milestones: list[tuple[str, int, float]] = field(default_factory=list)


class _OpenWork:
    """Mutable record of the currently executing unit of work."""

    __slots__ = ("sid", "node", "name", "t0", "arrival", "cause", "parts")

    def __init__(self, sid: int, node: int, name: str, t0: float,
                 arrival: float, cause: Optional[int]) -> None:
        self.sid = sid
        self.node = node
        self.name = name
        self.t0 = t0
        self.arrival = arrival
        self.cause = cause
        self.parts: list[tuple[str, str, float]] = []


class SpanTracer:
    """Disabled-by-default causal span recorder attached to a Simulator."""

    def __init__(self, sim: Any = None, enabled: bool = False) -> None:
        self.sim = sim
        self.enabled = enabled
        self.spans: list[Span] = []
        self.blocks: dict[str, BlockRecord] = {}
        self._by_sid: dict[int, Span] = {}
        self._next_sid = 0
        self._open: Optional[_OpenWork] = None
        self._staged: Optional[tuple[int, str, float, Optional[int]]] = None
        self._routes: dict[int, int] = {}
        self._open_phases: dict[tuple[str, Optional[int]], tuple[int, float, dict]] = {}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _alloc(self) -> int:
        self._next_sid += 1
        return self._next_sid

    def _push(self, span: Span) -> None:
        self.spans.append(span)
        self._by_sid[span.sid] = span

    def get(self, sid: Optional[int]) -> Optional[Span]:
        """Look up a closed span by id (None when unknown)."""
        if sid is None:
            return None
        return self._by_sid.get(sid)

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    # ------------------------------------------------------------------
    # Work spans (driven by ReplicaBase dispatch/flush)
    # ------------------------------------------------------------------
    def stage_dispatch(self, node: int, name: str, arrival: float,
                       cause: Optional[int]) -> None:
        """Stash message context for the work span about to open."""
        self._staged = (node, name, arrival, cause)

    def open_work(self, node: int, now: float) -> int:
        """Open the unit-of-work span for ``node`` at ``now``.

        Consumes staged dispatch context when present (message handlers);
        timer-driven tasks open with no parent and ``arrival == t0``.
        """
        sid = self._alloc()
        staged = self._staged
        if staged is not None and staged[0] == node:
            _, name, arrival, cause = staged
        else:
            name, arrival, cause = "task", now, None
        self._staged = None
        self._open = _OpenWork(sid, node, name, now, arrival, cause)
        return sid

    def add_part(self, kind: str, name: str, cost_ms: float) -> None:
        """Attach one categorized cost to the open work span.

        Charges arriving outside any unit of work (rare: bootstrap code)
        become standalone ``mark`` spans so no cost silently vanishes.
        """
        open_work = self._open
        if open_work is not None:
            open_work.parts.append((kind, name, cost_ms))
            return
        now = self._now()
        self._push(Span(self._alloc(), None, None, "mark",
                        f"{kind}:{name}", now, now + cost_ms))

    def add_parts(self, parts: Iterable[tuple[str, str, float]]) -> None:
        """Attach several categorized costs at once (enclave drains)."""
        open_work = self._open
        if open_work is not None:
            open_work.parts.extend(parts)
            return
        for kind, name, cost in parts:
            self.add_part(kind, name, cost)

    def close_work(self, sid: int, cpu_start: float, finish: float) -> None:
        """Close the open work span: its CPU window was [cpu_start, finish]."""
        open_work = self._open
        if open_work is None or open_work.sid != sid:
            return
        self._open = None
        self._push(Span(sid, open_work.cause, open_work.node, "work",
                        open_work.name, open_work.t0, finish,
                        {"arrival": open_work.arrival, "cpu_start": cpu_start},
                        tuple(open_work.parts)))

    @property
    def current_sid(self) -> Optional[int]:
        """Id of the unit of work currently executing (or None)."""
        open_work = self._open
        return open_work.sid if open_work is not None else None

    # ------------------------------------------------------------------
    # Net spans + message routes
    # ------------------------------------------------------------------
    def net_span(self, cause: Optional[int], msg_id: int, src: int, dst: int,
                 name: str, t0: float, t1: float, size: int = 0,
                 loopback: bool = False, retransmit: bool = False,
                 duplicate: bool = False) -> int:
        """Record one message flight and register its delivery route.

        ``retransmit`` marks transport retransmissions and ``duplicate``
        fabric-duplicated copies — the attrs that make retransmission
        storms visible on the critical path (they are omitted when false,
        so loss-free traces are byte-identical to pre-transport ones).
        """
        sid = self._alloc()
        attrs: dict[str, Any] = {"src": src, "dst": dst, "size": size}
        if loopback:
            attrs["loopback"] = True
        if retransmit:
            attrs["retransmit"] = True
        if duplicate:
            attrs["duplicate"] = True
        self._push(Span(sid, cause or None, src, "net", name, t0, t1, attrs))
        routes = self._routes
        routes[msg_id] = sid
        if len(routes) > _MAX_ROUTES:
            # Messages routinely outlive their route entry only when they
            # were dropped in flight or landed on a non-replica endpoint;
            # drop the oldest half (dict preserves insertion order).
            for key in list(routes)[: _MAX_ROUTES // 2]:
                del routes[key]
        return sid

    def take_route(self, msg_id: int) -> Optional[int]:
        """Pop the net span id that delivered ``msg_id`` (or None)."""
        return self._routes.pop(msg_id, None)

    # ------------------------------------------------------------------
    # Block lifecycle (protocol-phase spans)
    # ------------------------------------------------------------------
    def block_proposed(self, block_hash: str, view: int, proposer: int,
                       txs: int, now: float) -> None:
        """Record a proposal; anchored to the current work span."""
        if block_hash in self.blocks:
            return
        self.blocks[block_hash] = BlockRecord(
            block_hash, view, proposer, txs, now, self.current_sid)

    def block_milestone(self, block_hash: str, name: str, node: int,
                        now: float) -> None:
        """Record a protocol milestone (vote / cert / ...) for a block."""
        record = self.blocks.get(block_hash)
        if record is not None and record.t_commit is None:
            record.milestones.append((name, node, now))

    def block_committed(self, block_hash: str, node: int, now: float) -> None:
        """Record the first commit of a block anywhere in the cluster."""
        record = self.blocks.get(block_hash)
        if record is None or record.t_commit is not None:
            return
        record.t_commit = now
        record.commit_node = node
        record.commit_sid = self.current_sid

    # ------------------------------------------------------------------
    # Phases + instants
    # ------------------------------------------------------------------
    def begin_phase(self, name: str, node: Optional[int], now: float,
                    **attrs: Any) -> None:
        """Open a protocol phase (e.g. a recovery episode).  Re-opening a
        live phase replaces it (the earlier episode was cut short)."""
        self._open_phases[(name, node)] = (self._alloc(), now, dict(attrs))

    def end_phase(self, name: str, node: Optional[int], now: float,
                  **attrs: Any) -> None:
        """Close a phase opened with :meth:`begin_phase` (no-op if absent)."""
        entry = self._open_phases.pop((name, node), None)
        if entry is None:
            return
        sid, t0, merged = entry
        merged.update(attrs)
        self._push(Span(sid, None, node, "phase", name, t0, now, merged))

    def instant(self, name: str, node: Optional[int], now: float,
                **attrs: Any) -> None:
        """Record a zero-length marker (view change, reboot, ...)."""
        self._push(Span(self._alloc(), None, node, "mark", name, now, now,
                        dict(attrs)))

    def flush_open_phases(self, now: float) -> None:
        """Close any still-open phases at ``now`` (end of run)."""
        for (name, node) in list(self._open_phases):
            self.end_phase(name, node, now, truncated=True)

    # ------------------------------------------------------------------
    # Digest + stats
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Canonical SHA-256 over the whole trace.

        A pure function of the recorded spans and block records — identical
        (spec, seed) runs produce identical digests.
        """
        spans = tuple(
            (s.sid, s.parent or 0, -1 if s.node is None else s.node,
             s.kind, s.name, s.t0, s.t1,
             tuple(sorted(s.attrs.items())), s.parts)
            for s in self.spans
        )
        blocks = tuple(sorted(
            (r.hash, r.view, r.proposer, r.txs, r.t_propose,
             -1.0 if r.t_commit is None else r.t_commit,
             -1 if r.commit_node is None else r.commit_node,
             tuple(r.milestones))
            for r in self.blocks.values()
        ))
        return digest_of("repro.obs/v1", spans, blocks)


__all__ = ["Span", "SpanTracer", "BlockRecord", "PART_KINDS"]
