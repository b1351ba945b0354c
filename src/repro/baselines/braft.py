"""BRaft: a Raft implementation on the same substrate (Table 3 baseline).

The paper compares Achilles against BRaft (Baidu's C++ Raft) to quantify
the cost of BFT/TEE guarantees versus a plain CFT protocol.  This module
implements Raft faithfully enough to serve that comparison *and* to be a
usable CFT library in its own right:

* randomized election timeouts, terms, RequestVote with the up-to-date-log
  restriction (§5.4.1 of the Raft paper);
* AppendEntries with the (prevIndex, prevTerm) consistency check, follower
  log truncation on conflict, and leader commit-index advancement over the
  majority of matchIndex (current-term entries only, §5.4.2);
* heartbeats and batched log replication.

Log entries carry the same :class:`~repro.chain.block.Block` batches the
BFT protocols use, so throughput/latency numbers are directly comparable.
Messages carry no signatures — CFT trusts its peers — which is exactly the
CPU the BFT protocols additionally pay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.chain.block import Block, create_leaf
from repro.chain.execution import execute_transactions
from repro.chain.transaction import EMPTY_BATCH
from repro.consensus.base import ReplicaBase
from repro.net.message import HEADER_BYTES


@dataclass(frozen=True)
class LogEntry:
    """One replicated log entry: a block proposed in a term."""

    term: int
    block: Block

    def wire_size(self) -> int:
        """Serialized size."""
        return 8 + self.block.wire_size()


@dataclass(frozen=True)
class RequestVote:
    """Candidate → all: ask for a vote in ``term``."""

    term: int
    candidate: int
    last_log_index: int
    last_log_term: int

    def wire_size(self) -> int:
        """Serialized size."""
        return 28


@dataclass(frozen=True)
class RequestVoteReply:
    """Voter → candidate."""

    term: int
    granted: bool

    def wire_size(self) -> int:
        """Serialized size."""
        return 9


@dataclass(frozen=True)
class AppendEntries:
    """Leader → follower: replicate entries / heartbeat."""

    term: int
    leader: int
    prev_index: int
    prev_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int

    def wire_size(self) -> int:
        """Serialized size."""
        return 36 + sum(e.wire_size() for e in self.entries)


@dataclass(frozen=True)
class AppendReply:
    """Follower → leader: replication outcome."""

    term: int
    follower: int
    success: bool
    match_index: int

    #: Envelope size (``intern_size``): every reply has the same one.
    _env_size = HEADER_BYTES + 21

    def wire_size(self) -> int:
        """Serialized size."""
        return 21


class RaftRole(enum.Enum):
    """Raft server roles."""

    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


class BRaftNode(ReplicaBase):
    """A Raft server replicating block batches."""

    BYZ_PROPOSAL_KINDS = ("AppendEntries",)
    BYZ_VOTE_KINDS = ("AppendReply", "RequestVoteReply")
    # Commit notifications piggyback on AppendEntries.leader_commit; there
    # is no standalone decide message to hide.
    BYZ_DECIDE_KINDS = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.role = RaftRole.FOLLOWER
        self.term = 0
        self.voted_for: Optional[int] = None
        self.log: list[LogEntry] = []  # 1-based indices; log[0] is index 1
        self.commit_index = 0
        self.leader_id: Optional[int] = None
        # Leader volatile state
        self.next_index: dict[int, int] = {}
        self.match_index: dict[int, int] = {}
        self._votes_received: set[int] = set()
        self._election_timer = self.timer("election")
        self._heartbeat_timer = self.timer("heartbeat")
        self._rng = self.sim.fork_rng(f"raft/{self.node_id}")
        self.heartbeat_ms = max(10.0, self.config.base_timeout_ms / 10.0)
        self.election_min_ms = self.config.base_timeout_ms
        self.elections_won = 0

    # ------------------------------------------------------------------
    # Log helpers
    # ------------------------------------------------------------------
    def last_log_index(self) -> int:
        """Index of the last entry (0 when empty)."""
        return len(self.log)

    def last_log_term(self) -> int:
        """Term of the last entry (0 when empty)."""
        return self.log[-1].term if self.log else 0

    def entry_term(self, index: int) -> int:
        """Term of the entry at ``index`` (0 for index 0)."""
        if index == 0:
            return 0
        if 1 <= index <= len(self.log):
            return self.log[index - 1].term
        return -1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin as a follower with a randomized election timeout.

        Node 0 gets a shorter first timeout so benchmarks converge on a
        leader quickly and deterministically; real deployments rely on the
        same randomized-timeout mechanism without the bias.
        """
        if self.node_id == 0:
            # Fast bootstrap: the first server stands for election at once.
            self._election_timer.start(
                1.0, lambda: self.run_work(self._start_election)
            )
        else:
            self._arm_election_timer(extra=self.election_min_ms / 2.0)

    def _arm_election_timer(self, extra: float = 0.0) -> None:
        timeout = self.election_min_ms + extra + self._rng.uniform(0, self.election_min_ms)
        self._election_timer.start(timeout, lambda: self.run_work(self._start_election))

    _arm_view_timer = _arm_election_timer

    # ------------------------------------------------------------------
    # Elections (§5.2)
    # ------------------------------------------------------------------
    def _start_election(self) -> None:
        self.role = RaftRole.CANDIDATE
        self.term += 1
        self.voted_for = self.node_id
        self._votes_received = {self.node_id}
        self.leader_id = None
        self.sim.trace.record(self.sim.now, "raft_election", self.node_id, term=self.term)
        self.broadcast(RequestVote(
            term=self.term, candidate=self.node_id,
            last_log_index=self.last_log_index(), last_log_term=self.last_log_term(),
        ))
        self._arm_election_timer()

    def on_RequestVote(self, msg: RequestVote, src: int) -> None:
        """Grant a vote if the candidate's term and log qualify."""
        if msg.term > self.term:
            self._become_follower(msg.term)
        granted = False
        if msg.term == self.term and self.voted_for in (None, msg.candidate):
            up_to_date = (msg.last_log_term, msg.last_log_index) >= (
                self.last_log_term(), self.last_log_index()
            )
            if up_to_date:
                granted = True
                self.voted_for = msg.candidate
                self._arm_election_timer()
        self.send_to(src, RequestVoteReply(term=self.term, granted=granted))

    def on_RequestVoteReply(self, msg: RequestVoteReply, src: int) -> None:
        """Tally votes; become leader on a majority."""
        if msg.term > self.term:
            self._become_follower(msg.term)
            return
        if self.role is not RaftRole.CANDIDATE or msg.term != self.term or not msg.granted:
            return
        self._votes_received.add(src)
        if len(self._votes_received) >= self.config.f + 1:
            self._become_leader()

    def _become_follower(self, term: int) -> None:
        self.role = RaftRole.FOLLOWER
        self.term = term
        self.voted_for = None
        self._heartbeat_timer.cancel()
        self._arm_election_timer()

    def _become_leader(self) -> None:
        self.role = RaftRole.LEADER
        self.leader_id = self.node_id
        self.elections_won += 1
        self._election_timer.cancel()
        next_idx = self.last_log_index() + 1
        self.next_index = {p: next_idx for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        self.sim.trace.record(self.sim.now, "raft_leader", self.node_id, term=self.term)
        if self._obs.enabled:
            self._obs.instant("raft_leader", self.node_id, self.sim.now,
                              term=self.term)
        self._heartbeat()
        if self.last_log_index() > self.commit_index:
            # §5.4.2: entries from older terms cannot be committed by
            # counting replicas.  Appending a no-op in the new term lets
            # the whole tail commit — without it the log wedges.
            self._append_noop()
        else:
            self._try_append_batch()

    def _append_noop(self) -> None:
        parent = self.log[-1].block if self.log else self.store.genesis
        op = execute_transactions(EMPTY_BATCH, parent.hash)
        block = create_leaf(EMPTY_BATCH, op, parent, view=self.term,
                            proposer=self.node_id)
        self.log.append(LogEntry(term=self.term, block=block))
        self.store.add(block)
        for peer in self.peers:
            self._send_append(peer)
        if not self.peers:
            self._advance_leader_commit()

    # ------------------------------------------------------------------
    # Replication (§5.3)
    # ------------------------------------------------------------------
    def _heartbeat(self) -> None:
        if self.role is not RaftRole.LEADER:
            return
        for peer in self.peers:
            self._send_append(peer)
        self._heartbeat_timer.start(
            self.heartbeat_ms, lambda: self.run_work(self._heartbeat)
        )

    def _send_append(self, peer: int) -> None:
        next_idx = self.next_index.get(peer, self.last_log_index() + 1)
        prev_index = next_idx - 1
        prev_term = self.entry_term(prev_index)
        entries = tuple(self.log[next_idx - 1:])
        self.send_to(peer, AppendEntries(
            term=self.term, leader=self.node_id,
            prev_index=prev_index, prev_term=prev_term,
            entries=entries, leader_commit=self.commit_index,
        ))

    def _try_append_batch(self) -> None:
        """Leader: pull a batch from the mempool and replicate it."""
        if self.role is not RaftRole.LEADER:
            return
        if self.last_log_index() > self.commit_index:
            return  # serial chaining: one outstanding block, as in the BFT runs
        parent = self.log[-1].block if self.log else self.store.genesis
        block = self._build_block(parent, self.term, self._try_append_batch)
        if block is None:
            return
        self.log.append(LogEntry(term=self.term, block=block))
        self.store.add(block)
        if self.listener is not None:
            self.listener.on_propose(self.node_id, block, self.sim.now)
        if self._obs.enabled:
            self._obs.block_proposed(block.hash, self.term, self.node_id,
                                     block.txs.n, self.sim.now)
        for peer in self.peers:
            self._send_append(peer)
        if not self.peers:
            self._advance_leader_commit()  # single-server cluster

    def on_AppendEntries(self, msg: AppendEntries, src: int) -> None:
        """Follower: consistency-check, append, advance commit index."""
        if msg.term > self.term:
            self._become_follower(msg.term)
        if msg.term < self.term:
            self.send_to(src, AppendReply(term=self.term, follower=self.node_id,
                                          success=False, match_index=0))
            return
        self.role = RaftRole.FOLLOWER
        self.leader_id = msg.leader
        self._arm_election_timer()

        if self.entry_term(msg.prev_index) != msg.prev_term:
            # Fast backoff hint (§5.3): tell the leader how long our log is
            # so it can jump next_index instead of probing one at a time.
            self.send_to(src, AppendReply(
                term=self.term, follower=self.node_id, success=False,
                match_index=min(self.last_log_index(), msg.prev_index - 1),
            ))
            return
        # Append/overwrite entries after prev_index.
        index = msg.prev_index
        for entry in msg.entries:
            index += 1
            if index <= len(self.log):
                if self.log[index - 1].term != entry.term:
                    del self.log[index - 1:]  # conflict: truncate (§5.3)
                    self.log.append(entry)
                    self.store.add(entry.block)
            else:
                self.log.append(entry)
                self.store.add(entry.block)
        match = msg.prev_index + len(msg.entries)
        if msg.leader_commit > self.commit_index:
            self._advance_commit(min(msg.leader_commit, self.last_log_index()))
        self.send_to(src, AppendReply(term=self.term, follower=self.node_id,
                                      success=True, match_index=match))

    def on_AppendReply(self, msg: AppendReply, src: int) -> None:
        """Leader: update replication state; commit on a majority."""
        if msg.term > self.term:
            self._become_follower(msg.term)
            return
        if self.role is not RaftRole.LEADER or msg.term != self.term:
            return
        if not msg.success:
            hint = msg.match_index + 1
            self.next_index[src] = max(1, min(self.next_index.get(src, 1) - 1,
                                              hint))
            self._send_append(src)
            return
        self.match_index[src] = max(self.match_index.get(src, 0), msg.match_index)
        self.next_index[src] = self.match_index[src] + 1
        self._advance_leader_commit()

    def _advance_leader_commit(self) -> None:
        for index in range(self.last_log_index(), self.commit_index, -1):
            if self.entry_term(index) != self.term:
                continue  # only current-term entries commit by counting (§5.4.2)
            replicas = 1 + sum(1 for m in self.match_index.values() if m >= index)
            if replicas >= self.config.f + 1:
                self._advance_commit(index)
                break

    def _advance_commit(self, new_commit: int) -> None:
        if new_commit <= self.commit_index:
            return
        for index in range(self.commit_index + 1, new_commit + 1):
            block = self.log[index - 1].block
            if not self.store.has_full_ancestry(block):
                break
            self.commit_block(block)
            self.commit_index = index
        if self.role is RaftRole.LEADER:
            # Defer the next batch through the event queue (avoids deep
            # recursion on single-server clusters) — the commit index
            # piggybacks on the next AppendEntries either way.
            self.after(0.0, lambda: self.run_work(self._try_append_batch))

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the server (timers voided by the epoch bump)."""
        super().crash()
        self._heartbeat_timer.cancel()
        self._election_timer.cancel()

    def _reset_volatile(self) -> None:
        """(term, votedFor, log) stay, as Raft assumes stable storage for
        those; the server comes back as a follower and rejoins at once."""
        super()._reset_volatile()
        self.role = RaftRole.FOLLOWER
        self.leader_id = None


__all__ = [
    "BRaftNode",
    "RaftRole",
    "LogEntry",
    "RequestVote",
    "RequestVoteReply",
    "AppendEntries",
    "AppendReply",
]
