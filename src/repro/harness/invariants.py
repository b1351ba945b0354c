"""Always-on protocol invariant monitors.

The chaos campaigns (:mod:`repro.faults.chaos`) keep an
:class:`InvariantMonitor` attached to the cluster for the whole run, as a
:class:`~repro.consensus.base.CommitListener` plus a periodically polled
state observer.  Between them the monitors check, *continuously during the
run* rather than only at the end:

* **agreement** — any two nodes committing at the same height commit the
  same block, and each node's committed chain links parent to child
  (together: all committed chains are prefix-consistent — the paper's
  Theorem 1);
* **chain-integrity** — per node, committed heights advance one at a time
  and never repeat;
* **certified-commit** — no block stays committed without a valid f+1
  commitment certificate covering it (protocols report certificates via
  the optional ``on_commit_certificate`` listener hook);
* **no-duplicate-commit** — a node never commits the same block twice
  (duplicated/retransmitted messages must be absorbed idempotently);
* **exactly-once-apply** — a transaction is applied at most once per
  node: no tx key appears in two blocks a node committed (the
  state-machine-facing face of dedup under a duplicating fabric);
* **checker-monotonicity** — a trusted component's view number ``vi``
  never decreases within one incarnation of its host;
* **counter-monotonicity** — persistent counter values never decrease,
  reboots included (that is their entire point);
* **recovery-liveness** — every recovery episode terminates: no node is
  left RECOVERING at the end of a run.  A HALTED node is not stuck but
  contained: its trusted component refused a stale seal, and it
  fail-stops as a fault charged against f;
* **post-quiesce-liveness** — once faults quiesce, the committed height
  advances again (the GST-style liveness claim of Sec. 6);
* **sealed-state-freshness** (opt-in, ``track_seal_freshness=True``) —
  across reboots, a trusted component never runs on a view older than
  the peak it reached in an earlier incarnation, and a replica's
  executed application state never runs below the height of a snapshot
  an earlier incarnation sealed (the snapshot face of the same
  invariant; a node waiting on SNAP-REQ is *defending*, not violating).
  Plain sealing protocols (Damysus, OneShot) — and the
  ``snapshot_trust_sealed`` baseline — *accept* a stale sealed blob
  under a rollback attacker; this is the monitor the negative controls
  trip;
* **state-agreement** — any two replicas whose executed state stands at
  the same height expose the same state root (deterministic execution
  over the agreed chain; checked whenever nodes maintain state);
* **durable-prefix** — after a power cut (:mod:`repro.faults.powercut`),
  the state a node reboots into must be a prefix of what it had durably
  fsynced before the cut: the committed tip never ends below the durable
  floor captured at the cut, every durably committed block is committed
  again after recovery, and the storage layer never serves torn,
  uncommitted, or out-of-order records (the journal-off negative control
  trips exactly this).

**Negative controls.**  A campaign's ``expect_violations`` flips selected
invariants from "must hold" to "must demonstrably break": a Byzantine
campaign against an *unprotected* baseline proves the attack is real
only if the matching invariant trips.  The monitor itself only collects;
:func:`repro.harness.runner.verdict` turns its violations into what
fails the run — everything not expected, plus every expected invariant
that never tripped.

Violations are collected, never raised mid-run, so one bad event cannot
mask later ones; :meth:`InvariantMonitor.assert_ok` raises at the end with
every violation message.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from repro.chain.block import Block
from repro.chain.transaction import Transaction, TxKeySet
from repro.consensus.base import NodeStatus


@dataclass(frozen=True)
class InvariantViolation:
    """One observed invariant violation."""

    invariant: str
    time: float
    node: Optional[int]
    message: str

    def __str__(self) -> str:
        where = f"node {self.node}" if self.node is not None else "cluster"
        return f"[{self.invariant}] t={self.time:.3f} ms {where}: {self.message}"


class InvariantMonitor:
    """Continuous invariant checking for one cluster run.

    Usable standalone as a listener (``listener=InvariantMonitor()``) or
    chained in front of another listener such as a
    :class:`~repro.harness.metrics.MetricsCollector` via ``inner=``.
    Call :meth:`attach` to bind the cluster and start periodic state
    polling, :meth:`finalize` after the run, then :meth:`assert_ok`.
    """

    def __init__(self, inner: Any = None,
                 track_seal_freshness: bool = False) -> None:
        self.inner = inner
        self.track_seal_freshness = track_seal_freshness
        self.violations: list[InvariantViolation] = []
        self.cluster = None
        # height -> (block hash, first committing node)
        self._canonical: dict[int, tuple[str, int]] = {}
        # node -> height of its latest commit
        self._tip_height: dict[int, int] = {}
        # Per-node containers on_commit fills are defaultdicts: a
        # subscript, not a setdefault call, per block and node.
        # node -> hashes of every block it committed (no-duplicate-commit)
        self._committed_hashes: dict[int, set[str]] = defaultdict(set)
        # node -> the tx keys it applied, each tagged with its block's
        # index in the node's applied blocks (exactly-once)
        self._applied_txs: dict[int, TxKeySet] = defaultdict(
            partial(TxKeySet, tagged=True))
        # node -> hash of each block it applied transactions from
        self._applied_in: dict[int, list[str]] = defaultdict(list)
        # node -> committed blocks not yet covered by a certificate
        self._uncovered: dict[int, deque[tuple[int, str]]] = \
            defaultdict(deque)
        # nodes that ever reported a certificate (certified-commit applies)
        self._certifying_nodes: set[int] = set()
        # (node, epoch) -> last trusted view number seen
        self._last_vi: dict[tuple[int, int], int] = {}
        # node -> peak trusted view across *all* incarnations, and the
        # (node, epoch) pairs already reported stale (seal-freshness)
        self._peak_vi: dict[int, int] = {}
        self._stale_reported: set[tuple[int, int]] = set()
        # node -> peak *sealed snapshot* height across all incarnations
        # (the application-state face of seal-freshness)
        self._peak_snapshot: dict[int, int] = {}
        self._stale_snap_reported: set[tuple[int, int]] = set()
        # executed height -> (state root, first node seen there)
        self._state_roots: dict[int, tuple[str, int]] = {}
        self._state_disagree_reported: set[tuple[int, int]] = set()
        # (node, counter name) -> last persistent counter value seen
        self._last_counter: dict[tuple[int, str], int] = {}
        # node -> durable floor captured at its last power cut:
        # (height, hashes of the durable committed chain)
        self._durable_floor: dict[int, tuple[int, tuple[str, ...]]] = {}
        # node -> pre-cut committed hashes a post-cut replay may legally
        # re-commit (its durable chain rolled back, so it commits them anew)
        self._replay_allowance: dict[int, set[str]] = {}
        # node -> sim time it was first seen RECOVERING (this episode)
        self._recovering_since: dict[int, float] = {}
        self.polls = 0
        self._quiesced_at: Optional[float] = None
        self._height_at_quiesce = 0
        self._finalized = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, cluster, poll_every_ms: float = 25.0) -> "InvariantMonitor":
        """Bind ``cluster`` and schedule recurring state polls."""
        self.bind(cluster)
        sim = cluster.sim

        def tick() -> None:
            self.poll()
            sim.schedule(poll_every_ms, tick, label="invariant-poll")

        sim.schedule(poll_every_ms, tick, label="invariant-poll")
        return self

    def bind(self, cluster) -> "InvariantMonitor":
        """Bind the cluster without scheduling polls (tests drive poll())."""
        self.cluster = cluster
        return self

    def _violate(self, invariant: str, node: Optional[int], message: str) -> None:
        now = self.cluster.sim.now if self.cluster is not None else 0.0
        self.violations.append(InvariantViolation(invariant, now, node, message))
        if self.cluster is not None:
            self.cluster.sim.trace.record(now, "invariant_violation", node,
                                          invariant=invariant)

    # ------------------------------------------------------------------
    # CommitListener protocol (chains to ``inner``)
    # ------------------------------------------------------------------
    def on_propose(self, node: int, block: Block, now: float) -> None:
        if self.inner is not None:
            self.inner.on_propose(node, block, now)

    def on_commit(self, node: int, block: Block, now: float) -> None:
        height, block_hash = block.height, block.hash

        allowance = self._replay_allowance.get(node)
        if allowance and block_hash in allowance:
            # Post-power-cut replay: the node's durable chain rolled back
            # and it legitimately re-commits blocks it committed before
            # the cut.  Chain-integrity still applies (the replay must
            # advance one block at a time from the durable floor); the
            # duplicate/exactly-once bookkeeping already holds this block.
            allowance.discard(block_hash)
            last = self._tip_height.get(node)
            if last is not None and height != last + 1:
                self._violate(
                    "chain-integrity", node,
                    f"replayed committed height jumped {last} -> {height} "
                    f"(must advance one block at a time)",
                )
            self._tip_height[node] = height
            if self.inner is not None:
                self.inner.on_commit(node, block, now)
            return

        canonical = self._canonical.get(height)
        if canonical is None:
            self._canonical[height] = (block_hash, node)
        elif canonical[0] != block_hash:
            self._violate(
                "agreement", node,
                f"nodes {canonical[1]} and {node} committed different blocks "
                f"at height {height}: {canonical[0][:12]} vs {block_hash[:12]}",
            )
        parent = self._canonical.get(height - 1)
        if parent is not None and height > 0 and block.parent_hash != parent[0]:
            self._violate(
                "agreement", node,
                f"block {block_hash[:12]} at height {height} does not extend "
                f"the canonical block {parent[0][:12]} at height {height - 1}",
            )

        last = self._tip_height.get(node)
        if last is not None and height != last + 1:
            self._violate(
                "chain-integrity", node,
                f"committed height jumped {last} -> {height} "
                f"(must advance one block at a time)",
            )
        self._tip_height[node] = height

        committed = self._committed_hashes[node]
        if block_hash in committed:
            self._violate(
                "no-duplicate-commit", node,
                f"block {block_hash[:12]} (height {height}) committed twice "
                f"(duplicate delivery not absorbed)",
            )
        committed.add(block_hash)

        # Exactly-once: one batch test per block; the block is walked per
        # transaction only when a key repeats, in it or in what the node
        # applied before, so that path alone words the violations.
        txs = block.txs
        if txs.n:
            applied, blocks = self._applied_txs[node], self._applied_in[node]
            tag = len(blocks)
            blocks.append(block_hash)
            if not applied.add_new(txs.client_ids, txs.tx_ids, tag):
                for key in txs.keys():
                    if not applied.add(key, tag):
                        earlier = blocks[applied.tag_of(key)]
                        self._violate(
                            "exactly-once-apply", node,
                            f"tx {key} applied twice: in block "
                            f"{earlier[:12]} and again in "
                            f"{block_hash[:12]} (height {height})",
                        )

        self._uncovered[node].append((height, block_hash))
        if self.inner is not None:
            self.inner.on_commit(node, block, now)

    def on_state_transfer(self, node: int, block: Block, now: float) -> None:
        """``node`` installed a certified checkpoint/snapshot at ``block``.

        A legitimate committed-height jump — not a chain-integrity break —
        but the installed block must still agree with the canonical chain.
        """
        canonical = self._canonical.get(block.height)
        if canonical is None:
            self._canonical[block.height] = (block.hash, node)
        elif canonical[0] != block.hash:
            self._violate(
                "agreement", node,
                f"state transfer installed block {block.hash[:12]} at height "
                f"{block.height}, but node {canonical[1]} committed "
                f"{canonical[0][:12]} there",
            )
        self._tip_height[node] = block.height
        self._committed_hashes[node].add(block.hash)
        inner = getattr(self.inner, "on_state_transfer", None)
        if inner is not None:
            inner(node, block, now)

    def on_reply(self, node: int, tx: Transaction, now: float) -> None:
        if self.inner is not None:
            self.inner.on_reply(node, tx, now)

    def on_replies(self, node: int, block: Block, now: float) -> None:
        inner_many = getattr(self.inner, "on_replies", None)
        if inner_many is not None:
            inner_many(node, block, now)
        elif self.inner is not None:
            for tx in block.txs:
                self.inner.on_reply(node, tx, now)

    def on_commit_certificate(self, node: int, qc: Any, now: float) -> None:
        """A node reports the certificate justifying its latest commit."""
        self._certifying_nodes.add(node)
        if self.cluster is not None:
            threshold = self.cluster.config.f + 1
            signers = qc.signatures.distinct_signers()
            if len(signers) < threshold or not qc.validate(
                    self.cluster.keyring, threshold):
                self._violate(
                    "certified-commit", node,
                    f"commitment certificate for block {qc.block_hash[:12]} "
                    f"(view {qc.view}) lacks f+1={threshold} valid distinct "
                    f"signatures",
                )
                return
        # The certificate covers its block and, transitively, every
        # uncommitted ancestor the node committed along with it.
        uncovered = self._uncovered.get(node)
        if not uncovered:
            return
        if any(entry[1] == qc.block_hash for entry in uncovered):
            while uncovered:
                _height, block_hash = uncovered.popleft()
                if block_hash == qc.block_hash:
                    break

    # ------------------------------------------------------------------
    # Periodic state polling
    # ------------------------------------------------------------------
    def poll(self) -> None:
        """Sample trusted state on every node; record monotonicity breaks."""
        if self.cluster is None:
            return
        self.polls += 1
        now = self.cluster.sim.now
        for node in self.cluster.nodes:
            self._poll_trusted_view(node)
            self._poll_counters(node)
            self._poll_recovery(node, now)
            self._poll_app_state(node)

    def _trusted_components(self, node) -> list[tuple[str, Any]]:
        found = []
        for attr in ("checker", "usig", "proposer", "accumulator"):
            component = getattr(node, attr, None)
            if component is not None:
                found.append((attr, component))
        return found

    def _poll_trusted_view(self, node) -> None:
        checker = getattr(node, "checker", None)
        state = getattr(checker, "state", None)
        vi = getattr(state, "vi", None)
        if vi is None:
            return
        key = (node.node_id, node.epoch)
        last = self._last_vi.get(key)
        if last is not None and vi < last:
            self._violate(
                "checker-monotonicity", node.node_id,
                f"checker view went backwards within one incarnation "
                f"(epoch {node.epoch}): {last} -> {vi}",
            )
        self._last_vi[key] = vi
        if self.track_seal_freshness and \
                node.status is NodeStatus.RUNNING and \
                not getattr(checker, "recovering", False):
            # Cross-incarnation: a new epoch *running* below the peak of an
            # earlier one means the enclave restored stale sealed state
            # (within an epoch, checker-monotonicity already covers it).
            # While recovering is set the enclave has refused to run at
            # all — the -R defense, not a freshness violation.  A node that
            # is still RECOVERING shows a zeroed view legitimately: its
            # checker is waiting on the recovery protocol, not on sealed
            # storage, to restore vi.
            peak = self._peak_vi.get(node.node_id, 0)
            if vi < peak and key not in self._stale_reported:
                self._stale_reported.add(key)
                self._violate(
                    "sealed-state-freshness", node.node_id,
                    f"epoch {node.epoch} restored trusted view {vi}, behind "
                    f"the peak {peak} of an earlier incarnation (stale "
                    f"sealed blob accepted)",
                )
            self._peak_vi[node.node_id] = max(peak, vi)

    def _poll_app_state(self, node) -> None:
        sm = getattr(node, "state_machine", None)
        if sm is None or not getattr(node, "alive", True):
            return
        state_height = sm.state_height
        # State agreement: every root observed at a given executed height
        # must match the first one seen there (deterministic execution
        # over the agreed chain — snapshot installs included).
        if state_height > 0:
            root = sm.state_root
            seen = self._state_roots.get(state_height)
            if seen is None:
                self._state_roots[state_height] = (root, node.node_id)
            elif seen[0] != root:
                key = (node.node_id, state_height)
                if key not in self._state_disagree_reported:
                    self._state_disagree_reported.add(key)
                    self._violate(
                        "state-agreement", node.node_id,
                        f"state root at executed height {state_height} "
                        f"disagrees with node {seen[1]}'s root there",
                    )
        if not self.track_seal_freshness:
            return
        if getattr(node, "snapshot_vault", None) is None:
            return
        if getattr(node, "snapshot_sync_pending", False):
            # Defended gap: the node discarded possibly-stale state and is
            # waiting for a certified fresh snapshot — not a violation.
            return
        if node.status is not NodeStatus.RUNNING:
            return
        node_id = node.node_id
        peak = self._peak_snapshot.get(node_id, 0)
        key = (node_id, node.epoch)
        if state_height < peak and key not in self._stale_snap_reported:
            self._stale_snap_reported.add(key)
            self._violate(
                "sealed-state-freshness", node_id,
                f"epoch {node.epoch} runs executed state at height "
                f"{state_height}, behind the height-{peak} snapshot an "
                f"earlier incarnation sealed (stale sealed snapshot "
                f"accepted)",
            )
        self._peak_snapshot[node_id] = max(
            peak, getattr(node, "sealed_snapshot_height", 0))

    def _poll_counters(self, node) -> None:
        for attr, component in self._trusted_components(node):
            counter = getattr(component, "counter", None)
            value = getattr(counter, "value", None)
            if value is None:
                continue
            key = (node.node_id, f"{attr}.{counter.name}")
            last = self._last_counter.get(key)
            if last is not None and value < last:
                self._violate(
                    "counter-monotonicity", node.node_id,
                    f"persistent counter {counter.name} ({attr}) rolled "
                    f"back: {last} -> {value}",
                )
            self._last_counter[key] = value

    def _poll_recovery(self, node, now: float) -> None:
        node_id = node.node_id
        if node.status is not NodeStatus.RECOVERING:
            self._recovering_since.pop(node_id, None)
            return
        self._recovering_since.setdefault(node_id, now)

    # ------------------------------------------------------------------
    # Power-cut hooks (repro.faults.powercut)
    # ------------------------------------------------------------------
    def note_power_cut(self, node_id: int, durable_height: int,
                       durable_hashes: tuple[str, ...] = (),
                       resume_height: Optional[int] = None) -> None:
        """A power cut rolled ``node_id``'s durable state back.

        ``durable_height``/``durable_hashes`` describe the committed chain
        that survived the cut (the durable floor).  Re-commits of pre-cut
        blocks become legitimate replay, the node's commit cursor restarts
        at the floor, and :meth:`finalize` will check the durable-prefix
        invariant against it.  Monitor state derived from the victim's
        volatile or not-yet-durable state (counter samples, seal-freshness
        peaks, certificate coverage) is reset: physics erased it.

        ``resume_height`` is the height the node *actually* restarted at.
        With journaling it equals the floor; a journal-off recovery can
        resurrect records past it, and that break is reported separately
        through :meth:`note_prefix_violation` — the commit cursor still
        has to track where the node really is, or every later commit
        would double-report as a chain-integrity jump.
        """
        self._durable_floor[node_id] = (durable_height, tuple(durable_hashes))
        allowance = self._replay_allowance.setdefault(node_id, set())
        allowance.update(self._committed_hashes.get(node_id, ()))
        self._tip_height[node_id] = durable_height if resume_height is None \
            else resume_height
        self._uncovered.pop(node_id, None)
        for key in [k for k in self._last_counter if k[0] == node_id]:
            del self._last_counter[key]
        self._peak_vi.pop(node_id, None)
        self._peak_snapshot.pop(node_id, None)

    def note_prefix_violation(self, node_id: Optional[int],
                              message: str) -> None:
        """The storage layer reported a durable-prefix break directly:
        a journal-off recovery served torn, uncommitted, or out-of-order
        records back to its owner."""
        self._violate("durable-prefix", node_id, message)

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def mark_quiesced(self) -> None:
        """All injected faults are over; liveness must resume from here."""
        if self.cluster is None:
            return
        self._quiesced_at = self.cluster.sim.now
        self._height_at_quiesce = self.cluster.max_committed_height()

    def finalize(self) -> None:
        """Run the end-of-run checks (idempotent)."""
        if self._finalized or self.cluster is None:
            return
        self._finalized = True
        self.poll()

        for node in self.cluster.nodes:
            if node.status is NodeStatus.RECOVERING:
                since = self._recovering_since.get(node.node_id,
                                                   self.cluster.sim.now)
                self._violate(
                    "recovery-liveness", node.node_id,
                    f"recovery episode never terminated (RECOVERING since "
                    f"t={since:.1f} ms at end of run)",
                )

        for node_id in sorted(self._certifying_nodes):
            uncovered = self._uncovered.get(node_id)
            if uncovered:
                height, block_hash = uncovered[0]
                self._violate(
                    "certified-commit", node_id,
                    f"{len(uncovered)} committed block(s) never covered by a "
                    f"commitment certificate, first: height {height} "
                    f"({block_hash[:12]})",
                )

        for node in self.cluster.nodes:
            floor = self._durable_floor.get(node.node_id)
            store = getattr(node, "store", None)
            if floor is None or store is None:
                continue
            floor_height, floor_hashes = floor
            tip = store.committed_tip.height
            if tip < floor_height:
                self._violate(
                    "durable-prefix", node.node_id,
                    f"committed tip ended at height {tip}, below the "
                    f"durable floor {floor_height} captured at the power "
                    f"cut (durably committed state was lost)",
                )
            missing = [h for h in floor_hashes if not store.is_committed(h)]
            if missing:
                self._violate(
                    "durable-prefix", node.node_id,
                    f"{len(missing)} durably committed block(s) absent "
                    f"after recovery, first: {missing[0][:12]}",
                )

        if self._quiesced_at is not None:
            final_height = self.cluster.max_committed_height()
            if final_height <= self._height_at_quiesce:
                self._violate(
                    "post-quiesce-liveness", None,
                    f"committed height stuck at {final_height} since faults "
                    f"quiesced at t={self._quiesced_at:.1f} ms",
                )

    @property
    def ok(self) -> bool:
        """True while no invariant has been violated."""
        return not self.violations

    def assert_ok(self) -> None:
        """Raise ``AssertionError`` naming every violation observed."""
        if self.violations:
            lines = "\n".join(f"  {v}" for v in self.violations)
            raise AssertionError(
                f"{len(self.violations)} invariant violation(s):\n{lines}"
            )

    def summary(self) -> dict:
        """Counts per invariant (for reports and result digests)."""
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts


__all__ = ["InvariantMonitor", "InvariantViolation"]
