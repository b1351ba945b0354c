"""MinBFT (Veronese et al., IEEE ToC 2013) on the USIG substrate.

The classic counter-based TEE-BFT protocol the Achilles paper uses to
explain the rollback-prevention tax (Sec. 2.2, Fig. 1): n = 2f+1, a stable
leader, and two all-to-all-ish rounds:

* **PREPARE** — the leader binds the batch to its next USIG identifier and
  broadcasts it;
* **COMMIT** — every backup verifies the leader's UI (gapless), binds the
  prepare digest to its *own* next UI, and broadcasts the commit to all;
  a node executes once f+1 nodes (leader included) have UI-certified the
  batch.

Four end-to-end steps, O(n²) messages, and — crucially for the paper's
argument — **one USIG counter assignment per node per batch**: with a
persistent counter attached (MinBFT-R) the commit path serializes behind
two counter writes (leader's, then backups'), which is the baseline cost
Fig. 1 illustrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.common import StableLeaderNode, ViewChangeVote
from repro.chain.block import Block
from repro.chain.execution import execute_transactions
from repro.crypto.hashing import digest_of
from repro.errors import EnclaveAbort
from repro.net.message import HASH_BYTES, HEADER_BYTES, SIGNATURE_BYTES
from repro.tee.trinc import Usig, UsigCertificate


@dataclass(frozen=True)
class MPrepare:
    """Leader → all: the batch, UI-certified."""

    view: int
    block: Block
    ui: UsigCertificate

    def digest(self) -> str:
        """What backups' commits bind to."""
        return digest_of("mprep", self.view, self.block.hash)

    def wire_size(self) -> int:
        """Serialized size."""
        return 8 + self.block.wire_size() + self.ui.wire_size()


@dataclass(frozen=True)
class MCommit:
    """Node → all: a UI-certified commit for a prepare digest."""

    view: int
    block_hash: str
    prepare_digest: str
    ui: UsigCertificate

    #: Envelope size (``intern_size``): every commit has the same one.
    _env_size = HEADER_BYTES + 8 + 2 * HASH_BYTES \
        + 2 + 4 + 8 + HASH_BYTES + SIGNATURE_BYTES

    def wire_size(self) -> int:
        """Serialized size."""
        return 8 + 2 * HASH_BYTES + self.ui.wire_size()


@dataclass(frozen=True)
class MViewChange(ViewChangeVote):
    """Node → all: vote to install the next leader."""

    TAG = "MVC"


class MinBFTNode(StableLeaderNode):
    """A MinBFT replica."""

    BYZ_PROPOSAL_KINDS = ("MPrepare",)
    BYZ_VOTE_KINDS = ("MCommit",)
    # MinBFT has no separate decide message: an MCommit both votes and
    # notifies, so hiding commits means hiding MCommits.
    BYZ_DECIDE_KINDS = ("MCommit",)
    VIEW_CHANGE = MViewChange
    ECHO_VIEW_CHANGE = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.usig = Usig(
            node_id=self.node_id, private_key=self.keypair.private,
            keyring=self.keyring, profile=self.config.enclave,
            crypto=self.config.crypto, counter=self._make_counter(),
        )
        self._prepares: dict[str, MPrepare] = {}       # digest -> prepare
        self._commit_uis: dict[str, set[int]] = {}     # digest -> nodes
        self._executed: set[str] = set()
        # height -> block hash this node UI-certified at that height.
        # UI-certifying two *different* blocks at one height would let two
        # f+1 commit quorums form on conflicting blocks (their intersection
        # node signed both) — the certification rule below refuses that.
        # Kept with the USIG's sealed TrInc state, so it survives reboots.
        self._certified: dict[int, str] = {}
        self._outstanding: Optional[str] = None        # digest in flight

    # ------------------------------------------------------------------
    def _lead(self) -> None:
        """Leader: UI-certify and broadcast the next batch."""
        if not self.is_leader(self.view) or self._outstanding is not None:
            return
        parent = self.store.committed_tip
        pending_hash = self._certified.get(parent.height + 1)
        if pending_hash is not None:
            # We already UI-certified a block at the next height (taken
            # over from the previous leader).  Re-propose *that* block —
            # proposing a different one at the same height would be our
            # own equivocation.
            pending = self.store.get(pending_hash)
            if pending is None or pending.parent_hash != parent.hash:
                return  # off our committed chain; let the leader rotate
            block = pending
        else:
            block = self._build_block(parent, self.view, self._lead)
            if block is None:
                return
        prepare_digest = digest_of("mprep", self.view, block.hash)
        try:
            ui = self.usig.create_ui(prepare_digest)
        except EnclaveAbort:
            if pending_hash is None:
                self.requeue_batch(block.txs)
            return
        finally:
            self.charge_enclave(self.usig)
        self._certified[block.height] = block.hash
        prepare = MPrepare(view=self.view, block=block, ui=ui)
        self._outstanding = prepare_digest
        self._prepares[prepare_digest] = prepare
        self.store.add(block)
        if self.listener is not None:
            self.listener.on_propose(self.node_id, block, self.sim.now)
        if self._obs.enabled:
            self._obs.block_proposed(block.hash, self.view, self.node_id,
                                     len(block.txs), self.sim.now)
        self.broadcast(prepare)
        # The leader's prepare doubles as its commit (MinBFT §IV).
        self._commit_uis.setdefault(prepare_digest, set()).add(self.node_id)
        self._maybe_execute(prepare_digest)

    # ------------------------------------------------------------------
    def on_MPrepare(self, msg: MPrepare, src: int) -> None:
        """Backup: verify the leader's UI, then UI-certify the commit."""
        if msg.view < self.view:
            return
        if msg.ui.node != self.leader_of(msg.view) or src != msg.ui.node:
            return
        if msg.block.height <= self.store.committed_tip.height:
            return  # stale: this height is already settled
        certified = self._certified.get(msg.block.height)
        if certified is not None and certified != msg.block.hash:
            return  # signing this UI would equivocate at msg.block.height
        digest = msg.digest()
        if certified == msg.block.hash and digest in self._prepares:
            # Duplicate delivery (fabric dup / transport retransmit) of a
            # prepare we already UI-certified: re-certifying would burn a
            # fresh USIG counter value and re-broadcast MCommit for no
            # protocol gain (message amplification under duplication).
            return
        self.charge_hash(msg.block.wire_size())
        try:
            # Gaps allowed: commits we dropped as late duplicates may have
            # advanced this sender's counter past the strict sequence.
            self.usig.verify_ui(msg.ui, digest, allow_gaps=True)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.usig)
        self._prepares[digest] = msg
        self.store.add(msg.block)
        if self.config.deep_validation:
            parent = self.store.get(msg.block.parent_hash)
            if parent is None or \
                    execute_transactions(msg.block.txs, parent.hash) != msg.block.op:
                return
        try:
            my_ui = self.usig.create_ui(digest)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.usig)
        self._certified[msg.block.height] = msg.block.hash
        if self._obs.enabled:
            self._obs.block_milestone(msg.block.hash, "vote", self.node_id,
                                      self.sim.now)
        commit = MCommit(view=msg.view, block_hash=msg.block.hash,
                         prepare_digest=digest, ui=my_ui)
        self.broadcast(commit)
        bucket = self._commit_uis.setdefault(digest, set())
        bucket.add(src)
        bucket.add(self.node_id)
        self._maybe_execute(digest)

    def on_MCommit(self, msg: MCommit, src: int) -> None:
        """Collect UI-certified commits; execute at f+1.

        The UI is consumed *before* the already-executed check so the
        per-sender counter stream never develops holes we then reject.
        """
        if msg.ui.node != src:
            return
        try:
            self.usig.verify_ui(msg.ui, msg.prepare_digest, allow_gaps=True)
        except EnclaveAbort:
            return
        finally:
            self.charge_enclave(self.usig)
        if msg.prepare_digest in self._executed:
            return
        self._commit_uis.setdefault(msg.prepare_digest, set()).add(src)
        self._maybe_execute(msg.prepare_digest)

    def _maybe_execute(self, digest: str) -> None:
        if digest in self._executed:
            return
        prepare = self._prepares.get(digest)
        if prepare is None:
            return
        if len(self._commit_uis.get(digest, ())) < self.config.f + 1:
            return
        block = prepare.block
        if not self.store.has_full_ancestry(block):
            self.with_full_ancestry(
                block, lambda _b: self._maybe_execute(digest))
            return
        self._executed.add(digest)
        if not self.store.is_committed(block.hash):
            if block.height <= self.store.committed_tip.height:
                # Superseded: while we lagged (partition, crash) the
                # quorum committed a *different* block at this height and
                # a checkpoint catch-up already advanced our tip past it.
                self._commit_uis.pop(digest, None)
                if self._outstanding == digest:
                    self._outstanding = None
                return
            self.commit_block(block)
        tip_height = self.store.committed_tip.height
        for height in [h for h in self._certified if h <= tip_height]:
            del self._certified[height]
        self.pacemaker.progress()
        self.pacemaker.view_started(self.view)
        self._commit_uis.pop(digest, None)
        if self._outstanding == digest:
            self._outstanding = None
        if self.is_leader(self.view):
            self.after(0.0, lambda: self.run_work(self._lead))

    # ------------------------------------------------------------------
    # Lifecycle and view change
    # ------------------------------------------------------------------
    def _reset_volatile(self) -> None:
        """The USIG's monotonic counter is persistent (TrInc), so the node
        rejoins with its UI sequence intact; everything host-side is
        volatile: in-flight prepares and partial commit quorums are gone."""
        super()._reset_volatile()
        self._prepares.clear()
        self._commit_uis.clear()
        self._executed.clear()
        self._outstanding = None

    on_MViewChange = StableLeaderNode._on_view_change

    def _view_installed(self) -> None:
        self._outstanding = None
        super()._view_installed()


__all__ = ["MinBFTNode", "MPrepare", "MCommit", "MViewChange"]
