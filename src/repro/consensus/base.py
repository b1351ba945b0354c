"""Replica base class.

:class:`ReplicaBase` provides the machinery every protocol node needs:

* a network endpoint with per-message CPU cost accounting — handler work is
  charged to the node's single-core :class:`~repro.sim.cpu.CpuModel`, and
  messages produced by a handler leave only when that work completes;
* leader schedules (round-robin by view, or stable);
* a block store with chained commitment and client-reply bookkeeping;
* a transaction source (mempool) and batch assembly;
* block synchronization (pull missing ancestors, paper Sec. 4.4);
* quorum collection (:class:`QuorumCollector`);
* the replica lifecycle — ``crash`` and the one ``reboot`` template every
  protocol fills in through three hooks (docs/PROTOCOLS.md, "Replica
  lifecycle and skeleton").

Protocol subclasses implement ``on_<MessageType>`` handlers and call
:meth:`send_to` / :meth:`broadcast` from inside them; the dispatch wrapper
takes care of CPU serialization so all protocols are costed identically.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Protocol as TypingProtocol

from repro.chain.block import Block, create_leaf
from repro.chain.execution import KVStateMachine, execute_transactions
from repro.chain.store import BlockStore
from repro.chain.transaction import Transaction
from repro.consensus.config import BATCH_WAIT_MS, ProtocolConfig
from repro.consensus.messages import BlockSyncRequest, BlockSyncResponse
from repro.crypto.keys import KeyPair, Keyring
from repro.net.message import Envelope
from repro.net.network import Network
from repro.sim.cpu import CpuModel
from repro.sim.process import Process
from repro.sim.loop import Simulator


class CommitListener(TypingProtocol):
    """Harness hook receiving protocol milestones."""

    def on_propose(self, node: int, block: Block, now: float) -> None:
        """A leader proposed ``block`` at ``now``."""

    def on_commit(self, node: int, block: Block, now: float) -> None:
        """``node`` committed ``block`` at ``now``."""

    def on_reply(self, node: int, tx: Transaction, now: float) -> None:
        """``node`` replied to ``tx``'s client at ``now``."""


class TransactionSource(TypingProtocol):
    """Where a proposer gets transactions (mempool abstraction)."""

    def take(self, count: int, now: float) -> list[Transaction]:
        """Remove and return up to ``count`` pending transactions."""

    def pending(self) -> int:
        """Number of transactions currently waiting."""


class NodeStatus(enum.Enum):
    """Replica lifecycle status."""

    RUNNING = "running"
    RECOVERING = "recovering"
    CRASHED = "crashed"


class QuorumCollector:
    """Votes bucketed by key, one per signer, until a key holds a quorum.

    A key is a tuple whose first element is the view (height, for
    checkpoint votes) the vote belongs to.  With ``once`` (the default) a
    view *latches* the first time one of its keys fills: :meth:`add` hands
    out that quorum and drops every later vote of the view; handlers test
    ``view in collector.latched`` before paying for a signature check.
    Without it every vote from the ``threshold``-th on reports the whole
    bucket (NEW-VIEW certificates, FlexiBFT's all-to-all votes).
    """

    def __init__(self, threshold: int, once: bool = True) -> None:
        self.threshold = threshold
        self.once = once
        #: Views whose quorum was handed out (``once`` collectors only).
        self.latched: set[int] = set()
        #: key -> {signer: vote}, both in arrival order.
        self.buckets: dict[tuple, dict[int, Any]] = {}

    def add(self, key: tuple, signer: int, item: Any) -> Optional[list]:
        """Count ``signer``'s vote for ``key``; a signer counts once.
        Returns the bucket's votes in arrival order (certificates sign them
        in that order) once it holds ``threshold``, else ``None``."""
        if key[0] in self.latched:
            return None
        bucket = self.buckets.setdefault(key, {})
        bucket[signer] = item
        if len(bucket) < self.threshold:
            return None
        if self.once:
            self.latched.add(key[0])
        return list(bucket.values())

    def voted(self, key: tuple, signer: int) -> bool:
        """Has ``signer``'s vote for ``key`` been counted?"""
        return signer in self.buckets.get(key, ())

    def votes(self, key: tuple) -> list:
        """The votes collected for ``key`` so far, in arrival order."""
        return list(self.buckets.get(key, {}).values())

    def discard(self, key: tuple) -> None:
        """Forget one bucket (its block was committed)."""
        self.buckets.pop(key, None)

    def prune(self, view: int) -> None:
        """Forget every bucket and latch of a view at or below ``view``."""
        buckets = self.buckets
        if buckets:
            for key in [k for k in buckets if k[0] <= view]:
                del buckets[key]
        if self.latched:
            self.latched = {v for v in self.latched if v > view}

    def clear(self) -> None:
        """Forget everything (the host rebooted)."""
        self.buckets.clear()
        self.latched.clear()


class ReplicaBase(Process):
    """Common machinery for all consensus replicas."""

    #: True where a reboot restores the trusted component from *sealed*
    #: storage (Damysus, OneShot): the surface a rollback attacker feeds
    #: stale blobs into.  Everything else never reads consensus state
    #: back from untrusted storage.
    RESTORES_FROM_SEAL = False
    #: The view timer (:class:`~repro.consensus.pacemaker.Pacemaker`);
    #: ``None`` for BRaft, whose election timer plays that part.
    pacemaker = None

    #: Message kinds (``type(payload).__name__``) carrying proposals, votes,
    #: and commit notifications.  The Byzantine strategy engine
    #: (:mod:`repro.faults.byz`) uses these to target attacks (withhold
    #: votes, hide commit notifications) at any protocol without knowing its
    #: message classes; protocols override them alongside their handlers.
    BYZ_PROPOSAL_KINDS: tuple[str, ...] = ()
    BYZ_VOTE_KINDS: tuple[str, ...] = ()
    BYZ_DECIDE_KINDS: tuple[str, ...] = ()

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        config: ProtocolConfig,
        keypair: KeyPair,
        keyring: Keyring,
        source: Optional[TransactionSource] = None,
        listener: Optional[CommitListener] = None,
    ) -> None:
        super().__init__(sim, name=f"node{node_id}")
        self.network = network
        self.node_id = node_id
        self.config = config
        self.keypair = keypair
        self.keyring = keyring
        self.source = source
        self.listener = listener
        self.cpu = CpuModel()
        self.store = BlockStore()
        self.peers = [i for i in range(config.n) if i != node_id]
        network.attach(node_id, self)
        # Causal span tracer (repro.obs); checked via `.enabled` on every
        # emission site so untraced runs pay one branch per site.
        self._obs = sim.obs
        # Per-instance handler dispatch cache: message kind -> unbound
        # ``on_<kind>`` function (or None).  Replaces a getattr + bound
        # method creation per delivered message with one dict hit.
        # Per-instance (not per-class) so dynamically created subclasses
        # (the Byzantine wrapper) can never share stale entries.
        self._handlers: dict[str, Any] = {}

        self.status = NodeStatus.RUNNING
        #: Completed recovery episodes (Table 2); only protocols with a
        #: recovery *protocol* (Algorithm 3) ever add one.
        self.recovery_episodes: list = []
        #: Vote collectors that live in host RAM: a reboot clears them.
        self._collectors: list[QuorumCollector] = []
        self._batch_timer = self.timer("batch_wait")

        self._pending_cost = 0.0
        self._outbox: list[tuple[int, Any]] = []
        self._in_handler = False
        # blocks waiting for a missing ancestor: hash -> [(block, action)]
        self._awaiting_ancestor: dict[str, list[tuple[Block, Callable[[Block], None]]]] = {}
        self._sync_requested: set[str] = set()
        # tx key -> client network address awaiting a reply
        self._client_reply_to: dict[tuple[int, int], int] = {}
        #: ``(listener, its on_replies, its on_commit_certificate)``: the
        #: optional hooks, looked up again only when ``listener`` changes.
        self._listener_hooks: tuple = (None, None, None)
        # Duplicate client requests absorbed (fabric duplication or client
        # retransmission): observability for the lossy-fabric campaigns.
        self.duplicate_client_requests = 0
        # Live executed state (enables the Sec. 6.1 fast-read path).
        self.state_machine = None
        if config.maintain_state:
            self.state_machine = self._new_state_machine()
        # Checkpointing (certified log compaction + state transfer).
        # Keyed (height, block hash, state root).  Not in `_collectors`:
        # partial checkpoint quorums have always survived a reboot, and a
        # rebooted replica's snapshot counters are pinned on that.
        self._checkpoint_votes = QuorumCollector(config.f + 1)
        self.checkpoint_certs: dict[int, object] = {}
        # Certified application snapshots (docs/STATE_TRANSFER.md): the
        # vault is a per-node enclave sealing each snapshot to untrusted
        # disk; `latest_snapshot` is what SNAP-REQ peers are served.
        self.snapshot_vault = None
        self.latest_snapshot = None
        #: Height of the newest snapshot this incarnation sealed or
        #: restored — what the freshness monitor compares state against.
        self.sealed_snapshot_height = 0
        #: Set while a rebooted replica has discarded possibly-stale state
        #: and is waiting for a certified snapshot from peers.
        self.snapshot_sync_pending = False
        #: Rollback attacker the next reboot's snapshot unseal goes
        #: through (planted by the stale-snapshot Byzantine strategy).
        self._snapshot_attacker = None
        # height -> (block, items, history, applied, root): state captured
        # at commit time of checkpoint-height blocks, awaiting its cert.
        self._pending_snapshot_state: dict[int, tuple] = {}
        self.snapshot_counters = {
            "sealed": 0, "restored": 0, "installed": 0, "served": 0,
            "rejected_stale": 0, "rejected_invalid": 0,
            "replayed_blocks": 0, "stale_runs": 0,
        }
        if config.snapshots:
            from repro.tee.enclave import Enclave

            self.snapshot_vault = Enclave(
                identity=f"node{node_id}/app-state",
                profile=config.enclave, crypto=config.crypto)
            self._snap_sync_timer = self.timer("snapshot-sync")

    # ------------------------------------------------------------------
    # What a protocol's constructor builds through the base
    # ------------------------------------------------------------------
    def _new_collector(self, threshold: int,
                       once: bool = True) -> QuorumCollector:
        """A vote collector living in host RAM: a reboot clears it."""
        collector = QuorumCollector(threshold, once)
        self._collectors.append(collector)
        return collector

    def _make_counter(self):
        """This replica's persistent counter on its own jitter stream (the
        -R variants), or ``None`` without rollback prevention."""
        if self.config.counter_factory is None:
            return None
        return self.config.make_counter(
            self.sim.fork_rng(f"counter/{self.node_id}"))

    # ------------------------------------------------------------------
    # Leader schedule
    # ------------------------------------------------------------------
    def leader_of(self, view: int) -> int:
        """Round-robin leader schedule (override for stable-leader
        protocols)."""
        return view % self.config.n

    def is_leader(self, view: int) -> bool:
        """Is this node the leader of ``view``?"""
        return self.leader_of(view) == self.node_id

    # ------------------------------------------------------------------
    # Network endpoint + CPU-accounted dispatch
    # ------------------------------------------------------------------
    def deliver(self, envelope: Envelope) -> None:
        """Network entry point: queue the message behind the node's CPU.

        Dispatch is scheduled through the handle-free fast path — a
        delivered message is never cancelled (:meth:`_dispatch` guards itself
        at fire time), so it needs neither an Event handle nor a closure.
        """
        if not self.alive:
            return
        sim = self.sim
        now = sim.now
        # The receive cost (fixed, plus deserialization per KB), reserved
        # on the CPU as CpuModel.account does.
        costs = self.config.costs
        cost = costs.msg_recv_ms \
            + costs.deserialize_per_kb_ms * (envelope.size / 1024.0)
        if cost < 0:
            raise ValueError(f"negative CPU cost: {cost}")
        cpu = self.cpu
        busy = cpu.busy_until
        ready = (busy if busy > now else now) + cost
        cpu.busy_until = ready
        cpu.total_busy += cost
        sim.queue.push_fast(ready, self._dispatch, (envelope, now, self.epoch))

    def _dispatch(self, envelope: Envelope, arrival: float,
                  epoch: int) -> None:
        """Run the handler of a message that reached this node at
        ``arrival`` — unless the node crashed or rebooted since."""
        if not self.alive or self.epoch != epoch:
            return
        payload = envelope.payload
        kind = payload.__class__.__name__
        handlers = self._handlers
        try:
            handler = handlers[kind]
        except KeyError:
            handler = handlers[kind] = getattr(type(self), f"on_{kind}", None)
        if handler is None:
            self.sim.trace.record(self.sim.now, "unhandled_message",
                                  self.node_id, message_kind=kind)
            return
        obs = self._obs
        if obs.enabled:
            obs.stage_dispatch(self.node_id, kind, arrival,
                               obs.take_route(envelope.msg_id))
        # Inlined run_work (one unit of work per delivered message): the
        # wrapper-closure version cost an allocation + two calls per
        # message on the hottest path in the simulator.
        if self._in_handler:
            handler(self, payload, envelope.src)
            return
        sid = obs.open_work(self.node_id, self.sim.now) if obs.enabled else 0
        self._in_handler = True
        try:
            handler(self, payload, envelope.src)
        finally:
            self._in_handler = False
            self._flush(sid)

    def run_work(self, fn: Callable[[], None]) -> None:
        """Run protocol work with cost accounting and deferred sends.

        All :meth:`charge`/:meth:`send_to` calls inside ``fn`` accumulate;
        when ``fn`` returns, the total cost is charged to the CPU and the
        queued messages depart at the completion time.  Re-entrant calls
        fold into the outer unit of work.
        """
        if self._in_handler:
            fn()
            return
        obs = self._obs
        sid = obs.open_work(self.node_id, self.sim.now) if obs.enabled else 0
        self._in_handler = True
        try:
            fn()
        finally:
            self._in_handler = False
            self._flush(sid)

    def _flush(self, sid: int = 0) -> None:
        cost = self._pending_cost
        outbox = self._outbox
        self._pending_cost = 0.0
        self._outbox = []
        if outbox:
            cost += self.config.costs.msg_send_ms * len(outbox)
        finish = self.cpu.account(self.sim.now, cost)
        if sid:
            self._obs.close_work(sid, finish - cost, finish)
        if not outbox:
            return
        if finish <= self.sim.now:
            self._transmit_outbox(outbox, self.epoch, sid)
        else:
            self.sim.queue.push_fast(finish, self._transmit_outbox,
                                     (outbox, self.epoch, sid))

    def _transmit_outbox(self, outbox: list, epoch: int, sid: int) -> None:
        if self.alive and self.epoch == epoch:
            self.network.send_outbox(self.node_id, outbox, sid,
                                     self._loopback)

    def _loopback(self, envelope: Envelope, sid: int) -> None:
        """A self-addressed message: skips the network and is dispatched
        one epsilon from now."""
        sim = self.sim
        arrival = sim.now + self.LOOPBACK_EPSILON_MS
        if sid and self._obs.enabled:
            # Give it a pseudo net span so the causal chain stays unbroken
            # (leader self-votes sit on the commit path).
            self._obs.net_span(
                sid, envelope.msg_id, self.node_id, self.node_id,
                type(envelope.payload).__name__, sim.now, arrival,
                envelope.size, loopback=True)
        sim.queue.push_fast(arrival, self._dispatch,
                            (envelope, arrival, self.epoch))

    # ------------------------------------------------------------------
    # Cost + send helpers (valid inside run_work)
    # ------------------------------------------------------------------
    def charge(self, cost_ms: float) -> None:
        """Account ``cost_ms`` of CPU work for the current handler."""
        self._pending_cost += cost_ms

    def charge_enclave(self, enclave) -> None:
        """Drain a trusted component's accrued cost onto this node's CPU
        (untraced, :meth:`~repro.tee.enclave.Enclave.drain_cost` in line:
        every ECALL of every protocol ends here)."""
        if self._obs.enabled:
            cost, parts = enclave.drain_cost_parts()
            self._pending_cost += cost
            if parts:
                self._obs.add_parts(parts)
        else:
            self._pending_cost += enclave._pending_cost
            enclave._pending_cost = 0.0

    def charge_verify(self, count: int = 1) -> None:
        """Account untrusted-side verification of ``count`` signatures."""
        cost = self.config.crypto.verify_many(count)
        self._pending_cost += cost
        if self._obs.enabled:
            self._obs.add_part("crypto", "verify", cost)

    def charge_sign(self, count: int = 1) -> None:
        """Account untrusted-side creation of ``count`` signatures."""
        cost = self.config.crypto.sign_ms * count
        self._pending_cost += cost
        if self._obs.enabled:
            self._obs.add_part("crypto", "sign", cost)

    def charge_hash(self, size_bytes: int) -> None:
        """Account untrusted-side hashing of ``size_bytes`` bytes."""
        cost = self.config.crypto.hash_cost(size_bytes)
        self._pending_cost += cost
        if self._obs.enabled:
            self._obs.add_part("crypto", "hash", cost)

    #: Floor on loopback delivery delay: guarantees simulated time advances
    #: even under zero-cost profiles (an n=1 committee would otherwise spin
    #: through infinitely many views at one instant).
    LOOPBACK_EPSILON_MS = 0.001

    def send_to(self, dst: int, payload: Any) -> None:
        """Queue a message to ``dst`` (departs when handler work finishes).

        Self-addressed messages skip the network but still wait for the
        current unit of work to complete (they ride the outbox like any
        other send) and land one epsilon later.
        """
        self._outbox.append((dst, payload))

    def broadcast(self, payload: Any, include_self: bool = False) -> None:
        """Queue a message to every peer (and optionally to self).

        Every per-destination send goes through :meth:`send_to` — the single
        choke point the reliable transport, obs span emission, and the
        Byzantine strategy engine all rely on.
        """
        for dst in self.peers:
            self.send_to(dst, payload)
        if include_self:
            self.send_to(self.node_id, payload)

    # ------------------------------------------------------------------
    # Batching / mempool
    # ------------------------------------------------------------------
    def make_batch(self) -> tuple[Transaction, ...]:
        """Pull up to ``batch_size`` transactions from the source."""
        if self.source is None:
            return ()
        txs = self.source.take(self.config.batch_size, self.sim.now)
        self.charge(self.config.costs.batch_per_tx_ms * len(txs))
        return tuple(txs)

    def requeue_batch(self, txs: tuple[Transaction, ...]) -> None:
        """Return a batch to the mempool after a failed proposal (e.g. the
        checker refused because the view moved on) — the transactions must
        not be lost."""
        requeue = getattr(self.source, "requeue", None)
        if requeue is not None and txs:
            requeue(txs)

    def _build_block(self, parent: Block, view: int,
                     retry: Callable[[], None]) -> Optional[Block]:
        """Batch, execute and chain the next block on ``parent``.

        With an empty mempool, returns ``None`` and runs ``retry`` as a
        unit of work after :data:`BATCH_WAIT_MS`.  A caller whose trusted
        component then refuses the block hands ``block.txs`` back through
        :meth:`requeue_batch`.
        """
        txs = self.make_batch()
        if not txs:
            self._batch_timer.start(BATCH_WAIT_MS,
                                    lambda: self.run_work(retry))
            return None
        self._batch_timer.cancel()
        op = execute_transactions(txs, parent.hash)
        self.charge(self.config.costs.exec_cost(len(txs)))
        return create_leaf(txs, op, parent, view=view, proposer=self.node_id)

    # ------------------------------------------------------------------
    # Commitment
    # ------------------------------------------------------------------
    def _new_state_machine(self):
        """A fresh application state machine (boot/reboot/state transfer).

        Every construction site funnels through here so a deployment with
        a custom machine (the shard layer's 2PC-aware one) rebuilds the
        same semantics after a crash or a checkpoint install.
        """
        factory = self.config.state_machine_factory
        if factory is not None:
            return factory()
        return KVStateMachine()

    def commit_block(self, block: Block, *, reply: bool = True) -> list[Block]:
        """Commit ``block`` (and uncommitted ancestors); notify listener.

        Execution cost for every newly committed transaction is charged
        here; replies to clients are reported through the listener (client
        network hops are accounted by the workload layer).
        """
        newly = self.store.commit(block)
        now = self.sim.now
        listener = self.listener
        hooks = self._listener_hooks
        if hooks[0] is not listener:
            hooks = self._listener_hooks = (
                listener, getattr(listener, "on_replies", None),
                getattr(listener, "on_commit_certificate", None))
        on_replies = hooks[1]
        costs = self.config.costs
        trace = self.sim.trace
        trace_record = trace.record if trace.enabled else None
        obs = self._obs if self._obs.enabled else None
        for b in newly:
            if obs is not None:
                obs.block_committed(b.hash, self.node_id, now)
            self._pending_cost += costs.exec_cost(len(b.txs))
            sm = self.state_machine
            if sm is not None and sm.state_height == b.height - 1:
                # Application of a batch is gated on contiguity: after a
                # checkpoint install (height jump) or a reboot, executed
                # state advances only once the gap has been bridged by a
                # snapshot/replay — never by executing on a wrong base.
                sm.apply_batch(b.txs)
                sm.state_height = b.height
                if self.snapshot_vault is not None:
                    snap_interval = self.config.checkpoint_interval
                    if snap_interval and b.height % snap_interval == 0:
                        self._capture_pending_snapshot(b, sm)
            if trace_record is not None:
                trace_record(now, "commit", self.node_id,
                             block=b.hash, view=b.view, height=b.height)
            if listener is not None:
                listener.on_commit(self.node_id, b, now)
                if reply:
                    if on_replies is not None:
                        on_replies(self.node_id, b.txs, now)
                    else:
                        on_reply = listener.on_reply
                        for tx in b.txs:
                            on_reply(self.node_id, tx, now)
            if self._client_reply_to:
                # Closed-loop clients register explicit reply routes; the
                # dict is empty in the common open-loop benchmarks, so skip
                # the per-transaction pops entirely then.
                from repro.consensus.messages import ClientReply

                pop_client = self._client_reply_to.pop
                # Shard-aware machines annotate replies with the 2PC entry
                # outcome ("prepared"/"committed"/...); the plain machine
                # has no such method and replies stay byte-identical.
                outcome_of = getattr(self.state_machine, "reply_outcome", None)
                for tx in b.txs:
                    client = pop_client(tx.key, None)
                    if client is not None:
                        self.send_to(client, ClientReply(
                            tx_key=tx.key, block_hash=b.hash, view=b.view,
                            replica=self.node_id,
                            outcome=outcome_of(tx.key) if outcome_of else "",
                        ))
            interval = self.config.checkpoint_interval
            if interval and b.height > 0 and b.height % interval == 0:
                self._emit_checkpoint_vote(b)
        return newly

    # ------------------------------------------------------------------
    # Checkpointing (PBFT-style, see repro.chain.checkpoint)
    # ------------------------------------------------------------------
    def _emit_checkpoint_vote(self, block: Block) -> None:
        from repro.chain.checkpoint import make_checkpoint_vote
        from repro.consensus.messages import CheckpointVoteMsg

        state_root = ""
        if self.snapshot_vault is not None:
            pending = self._pending_snapshot_state.get(block.height)
            if pending is not None and pending[0].hash == block.hash:
                state_root = pending[4]
        self.charge_sign(1)
        vote = make_checkpoint_vote(self.keypair.private, block.height,
                                    block.hash, state_root)
        self.broadcast(CheckpointVoteMsg(vote=vote))
        self._collect_checkpoint_vote(vote)

    def on_CheckpointVoteMsg(self, msg, src: int) -> None:
        """Collect checkpoint votes; compact on an f+1 certificate."""
        self.charge_verify(1)
        if not msg.vote.validate(self.keyring):
            return
        self._collect_checkpoint_vote(msg.vote)

    def _collect_checkpoint_vote(self, vote) -> None:
        from repro.chain.checkpoint import combine_checkpoint_votes

        if vote.height in self.checkpoint_certs:
            return
        quorum = self._checkpoint_votes.add(
            (vote.height, vote.block_hash, vote.state_root),
            vote.signature.signer, vote)
        if quorum is None:
            return
        certificate = combine_checkpoint_votes(quorum, self.config.f + 1)
        self.checkpoint_certs[vote.height] = certificate
        self._seal_snapshot_if_certified(certificate)
        self._checkpoint_votes.prune(vote.height)
        if self.store.is_committed(vote.block_hash):
            pruned = self.store.compact(retain=self.config.checkpoint_retain)
            if pruned:
                self.sim.trace.record(self.sim.now, "compaction", self.node_id,
                                      height=vote.height, pruned=pruned)

    def latest_checkpoint_cert(self):
        """The highest checkpoint certificate held (or None)."""
        if not self.checkpoint_certs:
            return None
        return self.checkpoint_certs[max(self.checkpoint_certs)]

    def on_CheckpointTransfer(self, msg, src: int) -> None:
        """Adopt a certified checkpoint (state transfer for laggards)."""
        certificate, block = msg.certificate, msg.block
        self.charge_verify(len(certificate.signatures))
        if certificate.block_hash != block.hash or \
                certificate.height != block.height:
            return
        if not certificate.validate(self.keyring, self.config.f + 1):
            return
        if block.height <= self.store.committed_tip.height:
            return
        self.store.install_checkpoint(block)
        self.checkpoint_certs.setdefault(certificate.height, certificate)
        notify = getattr(self.listener, "on_state_transfer", None)
        if notify is not None:
            notify(self.node_id, block, self.sim.now)
        if self.state_machine is not None:
            # Executed state cannot be replayed across the gap.  With
            # snapshots on, a SnapshotReply carries the state — request
            # one; the bare-checkpoint fallback restarts execution from an
            # empty base (documented limitation of checkpoint-only
            # deployments, unchanged behavior).
            self.state_machine = self._new_state_machine()
            if self.snapshot_vault is not None:
                self.snapshot_sync_pending = True
                self._request_snapshot_sync()
            else:
                self.state_machine.state_height = block.height
        self.sim.trace.record(self.sim.now, "checkpoint_installed",
                              self.node_id, height=block.height)
        self._retry_ancestry_waiters()

    def _retry_ancestry_waiters(self) -> None:
        pending = self._awaiting_ancestor
        self._awaiting_ancestor = {}
        self._sync_requested.clear()
        for waiters in pending.values():
            for waiting_block, action in waiters:
                self.with_full_ancestry(waiting_block, action)

    # ------------------------------------------------------------------
    # Certified application snapshots (docs/STATE_TRANSFER.md)
    # ------------------------------------------------------------------
    def _capture_pending_snapshot(self, block: Block, machine) -> None:
        """Stash executed state at a checkpoint-height block, so the f+1
        certificate (which arrives asynchronously) can be bound to the
        state exactly as it was when that block committed."""
        items, history, applied = machine.snapshot_state()
        self._pending_snapshot_state[block.height] = (
            block, items, history, applied, machine.state_root)
        while len(self._pending_snapshot_state) > 4:
            del self._pending_snapshot_state[min(self._pending_snapshot_state)]

    def _seal_snapshot_if_certified(self, certificate) -> None:
        """On a root-carrying checkpoint certificate, assemble the snapshot
        from the stashed state and seal it to the vault — before compaction
        gets a chance to prune the certified block."""
        if self.snapshot_vault is None or not certificate.state_root:
            return
        pending = self._pending_snapshot_state.get(certificate.height)
        if pending is None:
            return
        block, items, history, applied, root = pending
        if root != certificate.state_root or \
                block.hash != certificate.block_hash:
            return
        from repro.chain.snapshot import Snapshot

        snapshot = Snapshot(block=block, items=items, history=history,
                            applied=applied, state_root=root,
                            certificate=certificate)
        self.latest_snapshot = snapshot
        self.sealed_snapshot_height = snapshot.height
        self.snapshot_vault.seal_state("snapshot", snapshot)
        self.charge_enclave(self.snapshot_vault)
        self.snapshot_counters["sealed"] += 1
        for height in [h for h in self._pending_snapshot_state
                       if h <= certificate.height]:
            del self._pending_snapshot_state[height]
        self.sim.trace.record(self.sim.now, "snapshot_sealed", self.node_id,
                              height=snapshot.height)

    def _rebuild_app_state(self) -> None:
        """Reboot path: reconstruct the executed state machine.

        Volatile executed state dies with the host; the restore order is

        1. unseal the latest sealed snapshot — through the planted rollback
           attacker if the Byzantine engine armed one — and validate its
           certificate, which proves authenticity but *not* freshness;
        2. replay the retained committed tail on top of it;
        3. if the retained log cannot bridge the gap between the restored
           snapshot and the committed tip, the defended path discards the
           state and pulls a certified fresh snapshot from peers
           (SNAP-REQ), while the ``snapshot_trust_sealed`` baseline runs
           on the possibly-stale state — which is exactly what the
           ``sealed-state-freshness`` invariant catches.
        """
        from repro.errors import SealingError

        self.state_machine = self._new_state_machine()
        self._pending_snapshot_state.clear()
        self.snapshot_sync_pending = False
        sm = self.state_machine
        vault = self.snapshot_vault
        snapshot = None
        if vault is not None:
            self.latest_snapshot = None
            self.sealed_snapshot_height = 0
            vault.reboot()
            self.charge(vault.restart(0))
            attacker, self._snapshot_attacker = self._snapshot_attacker, None
            try:
                if attacker is not None:
                    payload = attacker.unseal_for(vault, "snapshot")
                else:
                    payload = vault.unseal_state("snapshot")
            except SealingError:
                payload = None
            self.charge_enclave(vault)
            if payload is not None:
                self.charge_verify(len(payload.certificate.signatures))
                if payload.validate(self.keyring, self.config.f + 1):
                    snapshot = payload
        if snapshot is not None:
            sm.install_snapshot(snapshot.items, snapshot.history,
                                snapshot.applied, snapshot.height)
            self.latest_snapshot = snapshot
            self.sealed_snapshot_height = snapshot.height
            self.snapshot_counters["restored"] += 1
        if self._replay_committed_tail(sm) is not None:
            return
        # Gap: the retained log does not connect to the restored state.
        if vault is not None and not self.config.snapshot_trust_sealed:
            # Defended: refuse to serve from possibly-stale state; hold an
            # empty machine until a certified fresh snapshot arrives.
            self.state_machine = self._new_state_machine()
            self.latest_snapshot = None
            self.snapshot_sync_pending = True
            self._request_snapshot_sync()
        else:
            # Undefended baseline (or checkpoint-only deployment): keep
            # running on whatever state came back from disk.
            self.snapshot_counters["stale_runs"] += 1
            self.sim.trace.record(self.sim.now, "stale_state_run",
                                  self.node_id, height=sm.state_height)

    def _replay_committed_tail(self, machine) -> Optional[int]:
        """Replay committed blocks above ``machine.state_height`` in order.

        Returns the number of blocks replayed, or ``None`` when the
        retained log has been compacted past the machine's state — a gap
        no replay can bridge.
        """
        tip = self.store.committed_tip.height
        start = machine.state_height
        if start >= tip:
            return 0
        expected = start + 1
        replayed = 0
        for b in self.store.committed_chain():
            if b.height <= start:
                continue
            if b.height != expected:
                return None
            self.charge(self.config.costs.exec_cost(len(b.txs)))
            machine.apply_batch(b.txs)
            machine.state_height = b.height
            expected += 1
            replayed += 1
        if machine.state_height < tip:
            return None
        self.snapshot_counters["replayed_blocks"] += replayed
        return replayed

    def _request_snapshot_sync(self) -> None:
        """Broadcast ``SNAP-REQ`` and retry until a fresh snapshot lands."""
        if not self.snapshot_sync_pending or not self.alive:
            return
        from repro.consensus.messages import SnapshotRequest

        height = self.state_machine.state_height \
            if self.state_machine is not None else 0
        self.broadcast(SnapshotRequest(requester=self.node_id,
                                       min_height=height))
        self._snap_sync_timer.start(
            self.config.recovery_retry_ms * 4,
            lambda: self.run_work(self._request_snapshot_sync))

    def on_SnapshotRequest(self, msg, src: int) -> None:
        """Serve the latest certified snapshot (plus the committed tail
        above it) to a recovering or lagging peer."""
        snap = self.latest_snapshot
        if snap is None or snap.height <= msg.min_height:
            return
        if self.status is not NodeStatus.RUNNING:
            return
        from repro.consensus.messages import SnapshotReply

        deltas = tuple(b for b in self.store.committed_chain()
                       if b.height > snap.height)
        self.snapshot_counters["served"] += 1
        self.send_to(src, SnapshotReply(snapshot=snap, blocks=deltas))

    def on_SnapshotReply(self, msg, src: int) -> None:
        """Adopt a certified snapshot: rollback-resistant state transfer.

        Freshness comes from the cluster (an honest peer serves its latest
        certified snapshot, necessarily at least as new as anything this
        node ever sealed); authenticity comes from the f+1 certificate the
        carried state must recompute against.  Stale or tampered replies
        are counted and dropped.
        """
        if self.snapshot_vault is None or self.state_machine is None:
            return
        snap = msg.snapshot
        sm = self.state_machine
        if snap.height <= sm.state_height:
            self.snapshot_counters["rejected_stale"] += 1
            return
        self.charge_verify(len(snap.certificate.signatures))
        if not snap.validate(self.keyring, self.config.f + 1):
            self.snapshot_counters["rejected_invalid"] += 1
            return
        if not self.store.is_committed(snap.block.hash):
            if snap.height <= self.store.committed_tip.height:
                # A snapshot below our tip yet off our committed chain
                # would be a fork; certificates make this unreachable —
                # drop defensively.
                self.snapshot_counters["rejected_invalid"] += 1
                return
            self.store.install_checkpoint(snap.block)
            self.checkpoint_certs.setdefault(snap.certificate.height,
                                             snap.certificate)
            notify = getattr(self.listener, "on_state_transfer", None)
            if notify is not None:
                notify(self.node_id, snap.block, self.sim.now)
        sm.install_snapshot(snap.items, snap.history, snap.applied,
                            snap.height)
        self.snapshot_counters["installed"] += 1
        if self.latest_snapshot is None or \
                snap.height > self.latest_snapshot.height:
            self.latest_snapshot = snap
        if self._replay_committed_tail(sm) is None:
            # Still gapped (the served snapshot lags our own compaction
            # base): keep the sync pending — a fresher certificate exists
            # somewhere, and the retry timer is still armed.
            return
        if self.snapshot_sync_pending:
            self.snapshot_sync_pending = False
            self._snap_sync_timer.cancel()
        self.sim.trace.record(self.sim.now, "snapshot_installed",
                              self.node_id, height=snap.height)
        for b in msg.blocks:
            self.store.add(b)
        self._retry_ancestry_waiters()

    # ------------------------------------------------------------------
    # Block synchronization (paper Sec. 4.4)
    # ------------------------------------------------------------------
    def with_full_ancestry(self, block: Block, action: Callable[[Block], None],
                           hint: Optional[int] = None) -> None:
        """Run ``action(block)`` once the block's full ancestry is local,
        pulling missing ancestors from ``hint`` (or the proposer) first."""
        self.store.add(block)
        missing = self.store.missing_ancestor_hash(block)
        if missing is None:
            action(block)
            return
        self._await_ancestor(missing, block, action, hint)

    def _await_ancestor(self, missing: str, block: Block,
                        action: Callable[[Block], None],
                        hint: Optional[int] = None) -> None:
        """Run ``action(block)`` when the ``missing`` ancestor of a stored
        block arrives; pull it from ``hint`` (or the proposer) unless a
        pull is already out."""
        self._awaiting_ancestor.setdefault(missing, []).append((block, action))
        if missing not in self._sync_requested:
            self._sync_requested.add(missing)
            target = hint if hint is not None else (block.proposer if block.proposer >= 0 else None)
            request = BlockSyncRequest(block_hash=missing, requester=self.node_id)
            if target is not None and target != self.node_id:
                self.send_to(target, request)
            else:
                self.broadcast(request)

    def on_ClientRequest(self, msg, src: int) -> None:
        """Accept a client transaction into the mempool; remember where to
        send the reply once it commits."""
        submit = getattr(self.source, "submit", None)
        if submit is None:
            return
        self.store.track_txs = True
        if self.store.is_committed_tx(msg.tx.key):
            # Already executed: reply immediately (client retransmission).
            from repro.consensus.messages import ClientReply

            outcome_of = getattr(self.state_machine, "reply_outcome", None)
            self.send_to(msg.reply_to, ClientReply(
                tx_key=msg.tx.key,
                block_hash=self.store.committed_tip.hash,
                view=self.store.committed_tip.view,
                replica=self.node_id,
                outcome=outcome_of(msg.tx.key) if outcome_of else "",
            ))
            return
        if msg.tx.key in self._client_reply_to:
            # Duplicate delivery (fabric dup or client retransmission) of a
            # transaction already pending here: refresh the reply route but
            # never re-submit it to the mempool.
            self.duplicate_client_requests += 1
            self._client_reply_to[msg.tx.key] = msg.reply_to
            return
        self._client_reply_to[msg.tx.key] = msg.reply_to
        submit(msg.tx)

    def forget_client_routes(self) -> None:
        """Drop the pending client reply routes (volatile: they live in
        host RAM and die with a crash).  A whole-group outage must clear
        them — the pending-route gate in :meth:`on_ClientRequest` would
        otherwise swallow post-reboot client retransmissions of
        transactions the crash un-queued."""
        self._client_reply_to.clear()

    def on_ClientReadRequest(self, msg, src: int) -> None:
        """Answer a consensus-free read from the executed state
        (paper Sec. 6.1: the client needs n−f matching answers)."""
        if self.state_machine is None:
            return
        from repro.consensus.messages import ClientReadReply

        self.send_to(msg.reply_to, ClientReadReply(
            key=msg.key,
            value=self.state_machine.get(msg.key),
            height=self.store.committed_tip.height,
            replica=self.node_id,
        ))

    def on_BlockSyncRequest(self, msg: BlockSyncRequest, src: int) -> None:
        """Serve a block we hold; if it was compacted away, ship the latest
        certified checkpoint instead (state transfer)."""
        block = self.store.get(msg.block_hash)
        if block is not None:
            self.send_to(src, BlockSyncResponse(block=block))
            return
        snap = self.latest_snapshot
        if snap is not None:
            # With snapshots on, a compacted-away ancestor means the peer
            # needs state transfer — ship the full certified snapshot
            # (state included) rather than a bare checkpoint block.
            from repro.consensus.messages import SnapshotReply

            deltas = tuple(b for b in self.store.committed_chain()
                           if b.height > snap.height)
            self.snapshot_counters["served"] += 1
            self.send_to(src, SnapshotReply(snapshot=snap, blocks=deltas))
            return
        certificate = self.latest_checkpoint_cert()
        if certificate is not None:
            checkpoint_block = self.store.get(certificate.block_hash)
            if checkpoint_block is not None:
                from repro.consensus.messages import CheckpointTransfer

                self.send_to(src, CheckpointTransfer(
                    certificate=certificate, block=checkpoint_block))

    def on_BlockSyncResponse(self, msg: BlockSyncResponse, src: int) -> None:
        """A pulled block arrived: store it and retry whoever waited on it."""
        block = msg.block
        self.charge_hash(block.wire_size())
        self.store.add(block)
        self._sync_requested.discard(block.hash)
        waiters = self._awaiting_ancestor.pop(block.hash, [])
        for waiting_block, action in waiters:
            self.with_full_ancestry(waiting_block, action, hint=src)

    # ------------------------------------------------------------------
    # Lifecycle (docs/PROTOCOLS.md, "Replica lifecycle and skeleton")
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash: stop processing; in-flight work and timers are voided
        by the epoch bump (an override that also cancels a timer does so
        because a cancelled event and a voided one count differently)."""
        super().crash()
        self.status = NodeStatus.CRASHED
        self.sim.trace.record(self.sim.now, "crash", self.node_id)

    def reboot(self, rollback_attacker=None) -> None:
        """Come back from a crash — the one template; protocols fill in
        :meth:`_reset_volatile`, :meth:`_restart_trusted` and
        :meth:`_rejoin` and never override this.

        ``rollback_attacker`` (a :class:`~repro.tee.rollback.RollbackAttacker`)
        chooses which sealed version a ``RESTORES_FROM_SEAL`` protocol's
        trusted component gets to see; every other protocol ignores it.
        """
        self._reset_host()
        self.status = NodeStatus.RECOVERING
        if self.pacemaker is not None:
            self.pacemaker.stop()
        self._reset_volatile()
        if self._obs.enabled:
            self._obs.begin_phase("recovery", self.node_id, self.sim.now)
        self._rejoin(rollback_attacker, self._restart_trusted())

    def cold_restart(self) -> None:
        """Operator restart of a replica whose whole group was down; only a
        protocol whose recovery needs running helpers does more than
        reboot."""
        self.reboot()

    def _reset_host(self) -> None:
        """The host process restarts: a fresh epoch, idle CPU, nothing
        queued, transport and executed state rebuilt."""
        super().reboot()
        self.cpu.reset()
        self._pending_cost = 0.0
        self._outbox = []
        self._awaiting_ancestor.clear()
        self._sync_requested.clear()
        self._batch_timer.cancel()
        # Transport state dies with the host: abandon in-flight frames and
        # start a fresh stream epoch (no-op without a reliable channel).
        reset_channel = getattr(self.network, "reset_channel", None)
        if reset_channel is not None:
            reset_channel(self.node_id)
        if self.state_machine is not None:
            # Executed state is volatile: rebuild it from the sealed
            # snapshot (if any) plus the retained committed tail.
            self.run_work(self._rebuild_app_state)
        self.sim.trace.record(self.sim.now, "reboot", self.node_id)

    def _reset_volatile(self) -> None:
        """Hook: forget the protocol state that lived in host RAM."""
        for collector in self._collectors:
            collector.clear()

    def _restart_trusted(self) -> float:
        """Hook: power-cycle the trusted components; returns their
        bring-up latency (ms).  The default is a component whose state
        persists and needs no bring-up (USIG, FlexiBFT's proposer)."""
        return 0.0

    def _rejoin(self, rollback_attacker, init_ms: float) -> None:
        """Hook: get from a restarted host back into consensus, ending in
        :meth:`_resume` — at once, or from a continuation ``init_ms`` (and
        a recovery protocol) later, with ``status`` RECOVERING meanwhile."""
        self._resume()

    def _resume(self, view: Optional[int] = None) -> None:
        """RUNNING again (in ``view``, when the rejoin learned one): arm
        the view timer, close the ``recovery`` phase."""
        self.status = NodeStatus.RUNNING
        if view is not None:
            self.view = view
        self._arm_view_timer()
        if self._obs.enabled:
            self._obs.end_phase("recovery", self.node_id, self.sim.now,
                                view=view)

    def _arm_view_timer(self) -> None:
        """(Re)arm what times this replica out of a stalled view."""
        self.pacemaker.view_started(self.view)


__all__ = ["ReplicaBase", "CommitListener", "TransactionSource", "NodeStatus",
           "QuorumCollector"]
