"""The journal's flush cursors equal the full scans they replaced.

``WriteAheadJournal.fsync`` and ``commit`` flush from two cursors
instead of scanning every record ever written.  The scans they were
first written as survive here as :class:`FullScanJournal`; seeded random
sequences of ``write``, ``fsync``, ``commit`` (with and without an fsync
before it), ``log``, ``log_atomic``, an armed power cut and
``power_restore`` run on both, journaled and journal-off alike, and
after every step the records, the frozen cut image, the recovery report,
the durable view and every persistence point the controller was shown
must agree.
"""

from __future__ import annotations

import random

import pytest

from repro.storage.journal import (PowerCutController, WriteAheadJournal,
                                   _BUFFERED, _COMMITTED, _FSYNCED)


class FullScanJournal(WriteAheadJournal):
    """``fsync`` and ``commit`` as first written: a scan of every record."""

    def fsync(self) -> None:
        controller = self.controller
        if controller is None:
            return
        batch = [r for r in self.records if r.state == _BUFFERED]
        for record in batch:
            record.state = _FSYNCED
        controller.on_point(self, "fsync", batch[-1] if batch else None)

    def commit(self) -> None:
        controller = self.controller
        if controller is None:
            return
        batch = [r for r in self.records if r.state == _FSYNCED]
        for record in batch:
            record.state = _COMMITTED
        controller.on_point(self, "commit", batch[-1] if batch else None)


class Spy(PowerCutController):
    """A controller that also notes every point it is shown."""

    def __init__(self, seen: list, **kwargs) -> None:
        super().__init__(clock=lambda: 1.5, **kwargs)
        self.seen = seen

    def on_point(self, journal, kind, record) -> None:
        self.seen.append((kind, None if record is None else
                          (record.seq, record.op, record.key)))
        super().on_point(journal, kind, record)


STEPS = ("write", "write", "fsync", "commit", "log", "log_atomic", "cut",
         "restore")


def rows(records) -> list:
    return [(r.seq, r.op, r.key, r.value, r.state, r.torn, r.lost)
            for r in records]


def observed(journal: WriteAheadJournal, seen: list) -> tuple:
    cut = journal._cut
    report = journal.last_report
    return (rows(journal.records), journal._seq,
            None if cut is None else (rows(cut[0]), cut[1]),
            None if report is None else report.describe(),
            rows(journal.peek_durable()), list(seen))


def run(journal: WriteAheadJournal, steps: list, seen: list) -> list:
    """Apply ``steps`` to ``journal``; its observable state after each."""
    Spy(seen).register(journal)
    after = []
    for step, arg in steps:
        if step == "write":
            journal.write("put", f"k{arg}", arg)
        elif step == "fsync":
            journal.fsync()
        elif step == "commit":
            journal.commit()
        elif step == "log":
            journal.log("put", f"k{arg}", arg)
        elif step == "log_atomic":
            journal.log_atomic("inc", "ctr", arg)
        elif step == "cut":
            # The next persistence point freezes the image, with the cut
            # kind's mutation applied (one cut at a time: none is armed
            # or frozen).
            armed = journal.controller
            if journal._cut is None and (armed.recording or armed.fired):
                journal.controller = None
                Spy(seen, cut_index=0, cut_kind=arg).register(journal)
        else:
            journal.power_restore()
        after.append(observed(journal, seen))
    return after


def random_steps(rng: random.Random, count: int) -> list:
    steps = []
    for i in range(count):
        step = rng.choice(STEPS)
        arg = rng.choice((None, "reorder")) if step == "cut" else i
        steps.append((step, arg))
    return steps


@pytest.mark.parametrize("journaled", [True, False])
@pytest.mark.parametrize("seed", range(60))
def test_cursors_equal_the_full_scans(seed, journaled):
    steps = random_steps(random.Random(seed), 70)
    seen_scan, seen_cursor = [], []
    expected = run(FullScanJournal("store", journaled=journaled), steps,
                   seen_scan)
    got = run(WriteAheadJournal("store", journaled=journaled), steps,
              seen_cursor)
    for i, (want, have) in enumerate(zip(expected, got)):
        assert have == want, (seed, i, steps[i])


def test_the_sequences_reach_every_shape():
    """The fence is not vacuous: its sequences commit with buffered
    records pending, restore cuts of every kind, and in journal-off mode
    restore images that still hold fsynced, uncommitted records."""
    buffered_commits = fsynced_survivors = 0
    kinds = set()
    for seed in range(60):
        steps = random_steps(random.Random(seed), 70)
        states = run(FullScanJournal("store", journaled=False), steps, [])
        for (step, _), before, after in zip(steps[1:], states, states[1:]):
            records, cut = after[0], before[2]
            if step == "commit" and any(r[4] == _BUFFERED for r in records):
                buffered_commits += 1
            if step == "restore" and cut is not None:
                kinds.add(cut[1])
                fsynced_survivors += any(r[4] == _FSYNCED for r in records)
    assert buffered_commits > 20
    assert fsynced_survivors > 5
    assert {"write", "fsync", "commit", "reorder", "atomic"} <= kinds
