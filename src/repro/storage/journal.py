"""Write-ahead journal with explicit persistence points.

The module has two halves:

* :class:`WriteAheadJournal` — the durable-store abstraction every
  journaled structure (sealed-blob store, block store, persistent
  counters) funnels its mutations through.  ``write``/``fsync``/
  ``commit`` model the WAL discipline; ``log_atomic`` models a
  non-tearable hardware write (monotonic counters).

* :class:`PowerCutController` — the ALICE/CrashMonkey-style exploration
  hook.  In *recording* mode it enumerates every persistence point the
  victim reaches; in *replay* mode it freezes the durable image at one
  chosen point (applying the cut's mutation: lost buffered records, a
  torn flush tail, or a barrier-ignoring reorder) and invokes the
  harness's crash callback.  :meth:`WriteAheadJournal.power_restore`
  then rebuilds the owner's state from exactly that image at reboot.

Determinism contract: the journal performs no RNG draws, schedules no
events, and charges no simulated cost.  Without a controller attached it
retains nothing (a single integer increments per record), so ordinary
runs — every pinned golden digest — are byte-identical with the layer in
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.errors import StorageError


#: Record lifecycle states, in order.
_BUFFERED = "buffered"
_FSYNCED = "fsynced"
_COMMITTED = "committed"


@dataclass
class JournalRecord:
    """One journaled mutation of the owner's durable state."""

    seq: int
    op: str
    key: str
    value: Any
    state: str = _BUFFERED
    #: Partially persisted: the flush was cut mid-record.  A torn record
    #: is detectable (checksum/auth tag) and must be discarded by any
    #: discipline-honoring recovery.
    torn: bool = False
    #: Never reached the platter: a reorder cut flushed a *later* record
    #: ahead of this one and power died in between.
    lost: bool = False


@dataclass(frozen=True)
class PersistencePoint:
    """One enumerated persistence point of the oracle run."""

    index: int
    kind: str  # write | fsync | commit | atomic
    owner: str
    op: str
    at_ms: float


@dataclass
class RecoveryReport:
    """What a power-cut restore kept and discarded (one journal)."""

    owner: str
    cut_kind: str
    total: int = 0
    recovered: int = 0
    dropped_buffered: int = 0
    dropped_uncommitted: int = 0
    dropped_torn: int = 0
    dropped_lost: int = 0
    dropped_after_gap: int = 0
    #: Journal-off acceptance counters: nonzero means the recovered state
    #: is NOT a prefix of the fsynced history (the ``durable-prefix``
    #: negative-control evidence).
    accepted_torn: int = 0
    accepted_uncommitted: int = 0
    accepted_after_gap: int = 0

    @property
    def prefix_violated(self) -> bool:
        """True iff the recovered image breaks the durable-prefix rule."""
        return bool(self.accepted_torn or self.accepted_uncommitted
                    or self.accepted_after_gap)

    def describe(self) -> str:
        """One line for harness output."""
        return (f"{self.owner}[{self.cut_kind}]: {self.recovered}/"
                f"{self.total} recovered, dropped "
                f"{self.dropped_buffered}b/{self.dropped_uncommitted}u/"
                f"{self.dropped_torn}t/{self.dropped_lost}l/"
                f"{self.dropped_after_gap}g, accepted "
                f"{self.accepted_torn}t/{self.accepted_uncommitted}u/"
                f"{self.accepted_after_gap}g")


class WriteAheadJournal:
    """Durability timeline of one journaled structure.

    The owner keeps its live (volatile + durable) state as before; the
    journal records *when each mutation became durable*.  Passive without
    a controller: no retention, one counter increment per record.

    ``journaled=False`` models a write-back cache without barriers — the
    negative-control mode whose recovery accepts torn, uncommitted, and
    out-of-order records instead of truncating to a clean prefix.
    """

    def __init__(self, owner: str, *, atomic: bool = False,
                 journaled: bool = True) -> None:
        self.owner = owner
        self.atomic = atomic
        self.journaled = journaled
        self.records: list[JournalRecord] = []
        self.controller: Optional["PowerCutController"] = None
        #: Host callback: rebuild the owner's state from the surviving
        #: records (chain order).  Set by the owning structure.
        self.restore_fn: Optional[Callable[[list[JournalRecord]], None]] = None
        #: (frozen records, cut kind) pending restore; None otherwise.
        self._cut: Optional[tuple[list[JournalRecord], str]] = None
        self.last_report: Optional[RecoveryReport] = None
        self._seq = 0
        # Flush cursors into ``records``: every record before ``_synced``
        # is past BUFFERED, every record before ``_committed`` COMMITTED,
        # so a flush reads only the records written since the last one.
        self._synced = 0
        self._committed = 0

    # ------------------------------------------------------------------
    # Persistence points
    # ------------------------------------------------------------------
    def write(self, op: str, key: str, value: Any) -> None:
        """Buffer one record (persistence point ``write``)."""
        controller = self.controller
        if controller is None:
            self._seq += 1
            return
        record = JournalRecord(seq=self._seq, op=op, key=key, value=value)
        self._seq += 1
        self.records.append(record)
        controller.on_point(self, "write", record)

    def fsync(self) -> None:
        """Flush buffered records (persistence point ``fsync``)."""
        controller = self.controller
        if controller is None:
            return
        records = self.records
        batch = [r for r in records[self._synced:] if r.state == _BUFFERED]
        for record in batch:
            record.state = _FSYNCED
        self._synced = len(records)
        controller.on_point(self, "fsync", batch[-1] if batch else None)

    def commit(self) -> None:
        """Write the commit marker (persistence point ``commit``)."""
        controller = self.controller
        if controller is None:
            return
        # Only records before ``_synced`` can be FSYNCED; the ones after
        # it may still be buffered, so the cursor stops there.
        batch = [r for r in self.records[self._committed:self._synced]
                 if r.state == _FSYNCED]
        for record in batch:
            record.state = _COMMITTED
        self._committed = self._synced
        controller.on_point(self, "commit", batch[-1] if batch else None)

    def log(self, op: str, key: str, value: Any) -> None:
        """One full write→fsync→commit cycle for a single record.

        Passive (no controller): the record only takes its sequence
        number, as :meth:`write` would, and fsync and commit are no-ops.
        """
        if self.controller is None:
            self._seq += 1
            return
        self.write(op, key, value)
        self.fsync()
        self.commit()

    def log_atomic(self, op: str, key: str, value: Any) -> None:
        """A non-tearable durable write (hardware monotonic counter).

        One persistence point: before it the mutation never happened,
        at/after it the mutation is fully durable.  Never torn.
        """
        controller = self.controller
        if controller is None:
            self._seq += 1
            return
        record = JournalRecord(seq=self._seq, op=op, key=key, value=value,
                               state=_COMMITTED)
        self._seq += 1
        self.records.append(record)
        controller.on_point(self, "atomic", record)

    # ------------------------------------------------------------------
    # Power-cut restore
    # ------------------------------------------------------------------
    @property
    def cut_pending(self) -> bool:
        """A power cut froze a durable image awaiting :meth:`power_restore`."""
        return self._cut is not None

    def freeze_cut(self, kind: str) -> None:
        """Capture the durable image as of *now* (called by the controller
        at the cut point, after the cut's own mutation was applied)."""
        if self._cut is not None:
            raise StorageError(f"{self.owner}: cut already frozen")
        self._cut = ([replace(r) for r in self.records], kind)

    def peek_durable(self) -> list[JournalRecord]:
        """The records that will survive the pending cut (no side effects)."""
        if self._cut is None:
            return [r for r in self.records if r.state == _COMMITTED]
        frozen, kind = self._cut
        survivors, _ = self._recover([replace(r) for r in frozen], kind)
        return survivors

    def power_restore(self) -> Optional[RecoveryReport]:
        """Reboot-time restore: rebuild the owner from the durable image.

        A no-op (returns ``None``) when no cut is pending, so ordinary
        reboot paths can call it unconditionally.
        """
        if self._cut is None:
            return None
        frozen, kind = self._cut
        self._cut = None
        survivors, report = self._recover(frozen, kind)
        if self.restore_fn is not None:
            self.restore_fn(survivors)
        # The journal itself restarts from the durable image: everything
        # after it died with the power.
        self.records = survivors
        self._seq = (survivors[-1].seq + 1) if survivors else 0
        # No survivor is buffered, but a journal-off image serves fsynced,
        # uncommitted ones: the next commit commits them.
        self._synced = len(survivors)
        self._committed = next((i for i, r in enumerate(survivors)
                                if r.state != _COMMITTED), len(survivors))
        self.last_report = report
        return report

    def _recover(self, frozen: list[JournalRecord],
                 kind: str) -> tuple[list[JournalRecord], RecoveryReport]:
        """Apply the recovery discipline to a frozen durable image."""
        report = RecoveryReport(owner=self.owner, cut_kind=kind,
                                total=len(frozen))
        survivors: list[JournalRecord] = []
        if self.journaled:
            # WAL discipline: keep the longest gapless prefix of fully
            # committed, untorn records; discard everything after the
            # first hole, torn record, or missing commit marker.
            prefix_broken = False
            expected = frozen[0].seq if frozen else 0
            for record in frozen:
                if prefix_broken:
                    report.dropped_after_gap += 1
                    continue
                if record.lost or record.seq != expected:
                    report.dropped_lost += int(record.lost)
                    prefix_broken = True
                    if not record.lost:
                        report.dropped_after_gap += 1
                    continue
                expected += 1
                if record.torn:
                    report.dropped_torn += 1
                    prefix_broken = True
                elif record.state == _BUFFERED:
                    report.dropped_buffered += 1
                    prefix_broken = True
                elif record.state == _FSYNCED:
                    report.dropped_uncommitted += 1
                    prefix_broken = True
                else:
                    survivors.append(record)
        else:
            # Write-back cache without barriers: whatever reached the
            # platter is served back, torn tails and holes included.
            expected = frozen[0].seq if frozen else 0
            gap_seen = False
            for record in frozen:
                if record.lost:
                    report.dropped_lost += 1
                    gap_seen = True
                    continue
                if record.state == _BUFFERED:
                    report.dropped_buffered += 1
                    continue
                if record.seq != expected:
                    gap_seen = True
                expected = record.seq + 1
                if gap_seen:
                    report.accepted_after_gap += 1
                if record.torn:
                    report.accepted_torn += 1
                if record.state == _FSYNCED:
                    report.accepted_uncommitted += 1
                survivors.append(record)
        report.recovered = len(survivors)
        return survivors, report


class PowerCutController:
    """Enumerates persistence points; injects one cut on replay.

    Construct with ``cut_index=None`` for the oracle (recording) run;
    with ``cut_index=k`` the cut executes when the victim reaches point
    ``k``.  ``cut_kind='reorder'`` turns a commit-point cut into a
    barrier-ignoring reorder: the commit batch is durable but the record
    immediately before it is lost in the write-back cache.
    """

    def __init__(self, cut_index: Optional[int] = None,
                 cut_kind: Optional[str] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.cut_index = cut_index
        self.cut_kind = cut_kind
        self.clock = clock
        self.points: list[PersistencePoint] = []
        self.count = 0
        self.fired = False
        self.fired_at: Optional[PersistencePoint] = None
        self.journals: list[WriteAheadJournal] = []
        #: Harness callback, invoked exactly once at the cut:
        #: ``on_cut(point)`` — crash the victim, schedule its reboot.
        self.on_cut: Optional[Callable[[PersistencePoint], None]] = None

    @property
    def recording(self) -> bool:
        """True for the oracle (enumerate-only) run."""
        return self.cut_index is None

    def register(self, journal: WriteAheadJournal) -> None:
        """Attach to a victim journal (turns on record retention)."""
        if journal.controller is not None and journal.controller is not self:
            raise StorageError(
                f"{journal.owner}: journal already has a controller")
        journal.controller = self
        if journal not in self.journals:
            self.journals.append(journal)

    def on_point(self, journal: WriteAheadJournal, kind: str,
                 record: Optional[JournalRecord]) -> None:
        """One persistence point reached on the victim."""
        index = self.count
        self.count += 1
        # Only a recording run keeps its points; a replay builds the one
        # it cuts at.
        recording = self.cut_index is None
        if not recording and (self.fired or index != self.cut_index):
            return
        now = self.clock() if self.clock is not None else 0.0
        point = PersistencePoint(
            index=index, kind=kind, owner=journal.owner,
            op=record.op if record is not None else "", at_ms=now)
        if recording:
            self.points.append(point)
            return
        self.fired = True
        self.fired_at = point
        self._execute(journal, kind, record)
        if self.on_cut is not None:
            self.on_cut(point)

    def _execute(self, journal: WriteAheadJournal, kind: str,
                 record: Optional[JournalRecord]) -> None:
        """Freeze every registered journal's durable image at this point,
        applying the cut's mutation to the journal the point fired on."""
        effective = self.cut_kind or kind
        for other in self.journals:
            if other is not journal:
                # Between calls a journal is always at a clean boundary:
                # its image is simply everything durable so far.
                other.freeze_cut("remote")
        if effective == "reorder" and kind in ("commit", "atomic"):
            # Barrier-ignoring cache: the just-committed record hit the
            # platter ahead of the record right before it, then power
            # died — the durable image has a hole.
            journal.freeze_cut("reorder")
            frozen, _ = journal._cut
            target_seq = (record.seq - 1) if record is not None else -1
            for r in frozen:
                if r.seq == target_seq:
                    r.lost = True
        elif kind == "fsync":
            # Cut mid-flush: the batch's last record is torn.
            journal.freeze_cut("fsync")
            frozen, _ = journal._cut
            if record is not None:
                for r in frozen:
                    if r.seq == record.seq:
                        r.torn = True
        else:
            # write: the buffered record never reached the disk (dropped
            # by state).  commit/atomic: a clean boundary crash.
            journal.freeze_cut(kind)

    # ------------------------------------------------------------------
    # Harness helpers
    # ------------------------------------------------------------------
    def power_restore_all(self) -> list[RecoveryReport]:
        """Restore every registered journal; returns their reports."""
        reports = []
        for journal in self.journals:
            report = journal.power_restore()
            if report is not None:
                reports.append(report)
        return reports


__all__ = [
    "JournalRecord",
    "PersistencePoint",
    "PowerCutController",
    "RecoveryReport",
    "WriteAheadJournal",
]
