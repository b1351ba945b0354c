"""Cross-shard transactions: client-driven 2PC over BFT-ordered phases.

The :class:`TxnManager` drives two-phase commit through the
:class:`~repro.shard.router.Router`.  Nothing here is trusted: every
phase (PREPARE, the coordinator DECIDE record, COMMIT/ABORT) is an
ordinary transaction BFT-ordered inside the relevant shard, and the
manager only *observes* certified outcomes (f+1 matching replica
reports).  Safety reduces to three rules:

1. **Writes move only on TCMT.**  A commit decision record alone applies
   nothing anywhere — so a coordinator shard that orders ``TDEC commit``
   and then crashes has changed no state, and a universal abort still
   converges to all-or-nothing.
2. **TCMT is sent only after the coordinator shard certifies the commit
   decision,** and only if that certificate arrives within the decide
   deadline — far below the participant TTL, so a commit can never race
   a deterministic expiry.  Once sent, commit dissemination is
   persistent: the router pushes it until each participant orders it
   (rebooted shards pick it up on recovery; their TTL countdown froze
   while they were down).
3. **Everything else converges to abort.**  A prepare that cannot
   certify by the deadline, or a decision that cannot certify, aborts:
   the manager best-effort disseminates ``TABT`` with *bounded* retries
   (a real client gives up), and the participant-side block-count TTL
   (:class:`~repro.shard.machine.ShardStateMachine`) releases whatever
   the aborts could not reach.  Disable the TTL and a crashed
   coordinator wedges its participants' locks forever — exactly what the
   negative-control campaign demonstrates.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import StateMachineError
from repro.harness.metrics import LatencyStats
from repro.shard.machine import encode_writes

#: How long the prepare phase and the coordinator's decision may take to
#: certify before the transaction aborts (rules 2 and 3).
PREPARE_DEADLINE_MS = 400.0
DECIDE_DEADLINE_MS = 300.0
#: Retry budget for TABT dissemination — deliberately *smaller* than the
#: router's default: an abort is the no-information outcome, so a real
#: client stops pushing it quickly and leaves unreachable participants to
#: the TTL defense.  (TCMT, by contrast, is persistent: a certified commit
#: decision must reach every participant.)
ABORT_ATTEMPTS = 5


class CrossShardTxn:
    """Bookkeeping for one cross-shard transaction."""

    __slots__ = ("txid", "writes_by_shard", "coordinator", "state", "decision",
                 "prep_outcomes", "resolve_outcomes", "started_at",
                 "resolved_at", "outcome", "on_done")

    def __init__(self, txid: str, writes_by_shard, coordinator: int,
                 started_at: float, on_done) -> None:
        self.txid = txid
        #: shard -> tuple of (key, value) writes it owns
        self.writes_by_shard = writes_by_shard
        self.coordinator = coordinator
        #: preparing -> deciding -> resolving -> done
        self.state = "preparing"
        self.decision: Optional[str] = None
        self.prep_outcomes: dict[int, Optional[str]] = {}
        self.resolve_outcomes: dict[int, Optional[str]] = {}
        self.started_at = started_at
        self.resolved_at: Optional[float] = None
        #: "committed" / "aborted" once done
        self.outcome: Optional[str] = None
        self.on_done = on_done

    @property
    def participants(self) -> "list[int]":
        """The shards holding this transaction's writes, ascending."""
        return sorted(self.writes_by_shard)

    def involves(self, shard: int) -> bool:
        """Does ``shard`` hold writes or the decision record?"""
        return shard in self.writes_by_shard or shard == self.coordinator


class TxnManager:
    """Drives 2PC instances; owns cross-shard transaction statistics."""

    def __init__(self, sim, router, shard_map) -> None:
        self.sim = sim
        self.router = router
        self.shard_map = shard_map
        self._seq = 0
        #: every transaction ever begun, txid -> txn (the atomicity
        #: monitor audits all of them at end of run)
        self.txns: dict[str, CrossShardTxn] = {}
        # -- statistics ---------------------------------------------------
        self.committed = 0
        self.aborted = 0
        #: participants that answered a TCMT with "rejected" (post-expiry
        #: commit) — the atomicity hazard; stays 0 with sane TTL timing.
        self.commit_rejects = 0
        self.txn_latency = LatencyStats()

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def begin(self, writes: "dict[str, str]",
              on_done: Optional[Callable[[str], None]] = None) -> str:
        """Start a transaction over ``writes``; returns its txid.

        Single-shard write sets short-circuit to one BFT-ordered prepare+
        commit pair in that shard (locks exercise the same code path but
        no cross-shard coordination exists to get wrong).
        """
        if not writes:
            raise StateMachineError("a transaction needs at least one write")
        by_shard: dict[int, list] = {}
        for key, value in writes.items():
            by_shard.setdefault(self.shard_map.shard_of(key), []).append(
                (key, value))
        writes_by_shard = {s: tuple(sorted(kvs)) for s, kvs in by_shard.items()}
        self._seq += 1
        txid = f"t{self._seq}"
        txn = CrossShardTxn(txid, writes_by_shard,
                            coordinator=self.shard_map.shard_of(txid),
                            started_at=self.sim.now, on_done=on_done)
        self.txns[txid] = txn
        quorum = self.router.shard_f + 1
        for shard in txn.participants:
            payload = f"TPREP {txid} {encode_writes(txn.writes_by_shard[shard])}"
            self.router.submit_payload(
                shard, payload, quorum=quorum,
                on_done=lambda outcome, t=txn, s=shard:
                    self._on_prepare(t, s, outcome))
        self.sim.schedule(PREPARE_DEADLINE_MS,
                          lambda: self._prepare_deadline(txn),
                          label="txn-prepare-deadline")
        return txid

    def in_flight_involving(self, shard: int) -> int:
        """Unresolved transactions touching ``shard`` (chaos engagement:
        a shard crashed "mid-2PC" must have a non-zero count here)."""
        return sum(1 for txn in self.txns.values()
                   if txn.state != "done" and txn.involves(shard))

    def unresolved(self) -> "list[str]":
        """Txids not yet driven to a final outcome."""
        return [txid for txid, txn in self.txns.items() if txn.state != "done"]

    # ------------------------------------------------------------------
    # Phase 1: prepare
    # ------------------------------------------------------------------
    def _on_prepare(self, txn: CrossShardTxn, shard: int,
                    outcome: Optional[str]) -> None:
        if txn.state != "preparing":
            return
        txn.prep_outcomes[shard] = outcome
        if len(txn.prep_outcomes) < len(txn.writes_by_shard):
            return
        if all(o == "prepared" for o in txn.prep_outcomes.values()):
            self._decide(txn, "commit")
        else:
            self._decide(txn, "abort")

    def _prepare_deadline(self, txn: CrossShardTxn) -> None:
        if txn.state == "preparing":
            # A participant never certified (crashed/partitioned shard):
            # presume it lost and abort — safe, because no commit decision
            # exists yet and none will be pursued for this txn.
            self._decide(txn, "abort")

    # ------------------------------------------------------------------
    # Decision: BFT-ordered in the coordinator shard
    # ------------------------------------------------------------------
    def _decide(self, txn: CrossShardTxn, decision: str) -> None:
        txn.state = "deciding"
        txn.decision = decision
        quorum = self.router.shard_f + 1
        if decision == "abort":
            # Abort needs no certificate to be safe (rule 3): record the
            # decision best-effort for audit and resolve immediately.
            self.router.submit_payload(txn.coordinator,
                                       f"TDEC {txn.txid} abort", quorum=quorum)
            self._resolve(txn, "TABT")
            return
        done = {"fired": False}

        def on_decided(outcome: Optional[str]) -> None:
            if done["fired"] or txn.state != "deciding":
                return
            done["fired"] = True
            if outcome == "decided-commit":
                self._resolve(txn, "TCMT")
            else:
                # The coordinator shard recorded a conflicting/no decision
                # — never pursue commit without its certificate.  The txn
                # is now an abort for every purpose, including what the
                # client is told.
                txn.decision = "abort"
                self._resolve(txn, "TABT")

        def on_deadline() -> None:
            if done["fired"] or txn.state != "deciding":
                return
            done["fired"] = True
            # Decision did not certify in time (coordinator shard down).
            # Rule 2 forbids sending TCMT late — a slow certificate could
            # race participant expiry — so converge to abort: no TCMT is
            # ever sent, participants abort by TABT or TTL, and the client
            # must be told "aborted" (the commit intent never certified).
            txn.decision = "abort"
            self._resolve(txn, "TABT")

        self.router.submit_payload(txn.coordinator, f"TDEC {txn.txid} commit",
                                   quorum=quorum, on_done=on_decided)
        self.sim.schedule(DECIDE_DEADLINE_MS, on_deadline,
                          label="txn-decide-deadline")

    # ------------------------------------------------------------------
    # Phase 2: commit/abort dissemination
    # ------------------------------------------------------------------
    def _resolve(self, txn: CrossShardTxn, phase: str) -> None:
        txn.state = "resolving"
        quorum = self.router.shard_f + 1
        persistent = phase == "TCMT"
        for shard in txn.participants:
            self.router.submit_payload(
                shard, f"{phase} {txn.txid}", quorum=quorum,
                persistent=persistent,
                max_attempts=None if persistent else ABORT_ATTEMPTS,
                on_done=lambda outcome, t=txn, s=shard:
                    self._on_resolved(t, s, outcome))

    def _on_resolved(self, txn: CrossShardTxn, shard: int,
                     outcome: Optional[str]) -> None:
        if txn.state != "resolving":
            return
        txn.resolve_outcomes[shard] = outcome
        if outcome == "rejected":
            self.commit_rejects += 1
        if len(txn.resolve_outcomes) < len(txn.writes_by_shard):
            return
        txn.state = "done"
        txn.resolved_at = self.sim.now
        txn.outcome = "committed" if txn.decision == "commit" else "aborted"
        if txn.outcome == "committed":
            self.committed += 1
        else:
            self.aborted += 1
        self.txn_latency.add(txn.resolved_at - txn.started_at)
        if txn.on_done is not None:
            txn.on_done(txn.outcome)


__all__ = ["TxnManager", "CrossShardTxn"]
