"""FlexiBFT (from "Dissecting BFT Consensus", EuroSys '23).

FlexiBFT trades fault tolerance for performance: the committee is
n = 3f+1, backups never touch a persistent counter (their state may roll
back — the larger quorum absorbs it), and only the leader's trusted
proposer pays one counter write per block.  The normal case is one phase
with **all-to-all votes** (O(n²) messages): the leader broadcasts a
TEE-certified block, every node broadcasts a signed vote, and everyone
commits on 2f+1 matching votes.  Four end-to-end steps, responsive
replies (every node replies when it commits).

We follow the Achilles paper's experimental setup (Sec. 5.1): a stable
leader that proposes serially chained blocks without timeouts on the happy
path; a view change rotates the leader after repeated timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.common import RStateMixin
from repro.chain.block import Block, create_leaf
from repro.chain.execution import execute_transactions
from repro.consensus.base import CommitListener, ReplicaBase, TransactionSource
from repro.consensus.config import BATCH_WAIT_MS, ProtocolConfig
from repro.consensus.pacemaker import Pacemaker
from repro.core.certificates import BlockCertificate
from repro.crypto.keys import KeyPair, Keyring, PrivateKey
from repro.crypto.signatures import CryptoProfile, Signature, sign, verify
from repro.errors import EnclaveAbort
from repro.net.message import HASH_BYTES, SIGNATURE_BYTES
from repro.net.network import Network
from repro.sim.loop import Simulator
from repro.tee.enclave import Enclave, EnclaveProfile, ecall
from repro.tee.counters import PersistentCounter


class FlexiProposer(RStateMixin, Enclave):
    """The leader-side trusted component: certifies one block per height
    and pays the (single) persistent-counter write."""

    def __init__(
        self,
        node_id: int,
        n: int,
        private_key: PrivateKey,
        keyring: Keyring,
        profile: Optional[EnclaveProfile] = None,
        crypto: Optional[CryptoProfile] = None,
        counter: Optional[PersistentCounter] = None,
    ) -> None:
        super().__init__(identity=f"flexi-proposer/{node_id}", profile=profile, crypto=crypto)
        self.node_id = node_id
        self.n = n
        self._sk = private_key
        self._keyring = keyring
        self.last_height = 0
        self.attach_counter(counter)

    @ecall
    def tee_propose(self, block: Block) -> BlockCertificate:
        """Certify ``block`` as the unique proposal at its height."""
        if block.height <= self.last_height:
            raise EnclaveAbort(f"height {block.height} already proposed")
        self.charge_hash(block.wire_size())
        self.last_height = block.height
        self.protect_state_update(self.last_height)
        self.charge_sign(1)
        return BlockCertificate(
            block_hash=block.hash, view=block.view,
            signature=sign(self._sk, "PROP", block.hash, block.view),
        )

    def wipe_volatile_state(self) -> None:
        """Reboot: height marker restored via the counter-checked seal."""
        self.last_height = 0


@dataclass(frozen=True)
class FProposal:
    """Leader → all: a certified block."""

    block: Block
    block_cert: BlockCertificate

    def wire_size(self) -> int:
        """Serialized size."""
        return self.block.wire_size() + self.block_cert.wire_size()


@dataclass(frozen=True)
class FVote:
    """Node → all nodes: a signed vote (the O(n²) pattern)."""

    block_hash: str
    view: int
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return ("FVOTE", self.block_hash, self.view)

    def validate(self, keyring: Keyring) -> bool:
        """Check the signature."""
        return verify(keyring, self.signature, *self.statement())

    def wire_size(self) -> int:
        """Serialized size."""
        return 5 + HASH_BYTES + 8 + SIGNATURE_BYTES


@dataclass(frozen=True)
class FViewChange:
    """Node → all: vote to replace the leader after a timeout."""

    new_view: int
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return ("FVC", self.new_view)

    def validate(self, keyring: Keyring) -> bool:
        """Check the signature."""
        return verify(keyring, self.signature, *self.statement())

    def wire_size(self) -> int:
        """Serialized size."""
        return 3 + 8 + SIGNATURE_BYTES


class FlexiBFTNode(ReplicaBase):
    """A FlexiBFT replica (n = 3f+1, quorum 2f+1)."""

    BYZ_PROPOSAL_KINDS = ("FProposal",)
    BYZ_VOTE_KINDS = ("FVote",)
    # Commits are local once 2f+1 votes collect; nothing to hide.
    BYZ_DECIDE_KINDS = ()

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
        super().__init__(sim, network, node_id, config, keypair, keyring, source, listener)
        self.proposer = FlexiProposer(
            node_id=node_id, n=config.n,
            private_key=keypair.private, keyring=keyring,
            profile=config.enclave, crypto=config.crypto,
            counter=(config.make_counter(sim.fork_rng(f"counter/{node_id}"))
                     if config.counter_factory else None),
        )
        self.view = 0  # leader epoch: leader = view % n (stable until VC)
        self._votes: dict[tuple[str, int], dict[int, FVote]] = {}
        self._vc_votes: dict[int, set[int]] = {}
        self._proposed_height = 0
        self._blocks_by_hash_pending: dict[str, Block] = {}
        self._batch_timer = self.timer("batch_wait")
        self.pacemaker = Pacemaker(self, config.base_timeout_ms, self._on_timeout)

    @property
    def quorum(self) -> int:
        """2f+1 of 3f+1."""
        return 2 * self.config.f + 1

    def leader_of(self, view: int) -> int:
        """Stable leader: changes only on view change."""
        return view % self.config.n

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Leader of epoch 0 starts proposing immediately."""
        self.pacemaker.view_started(self.view)
        if self.is_leader(self.view):
            self.run_work(lambda: self._propose(self.store.committed_tip))

    def _propose(self, parent: Block) -> None:
        if not self.is_leader(self.view) or parent.height < self._proposed_height:
            return
        txs = self.make_batch()
        if not txs:
            self._batch_timer.start(
                BATCH_WAIT_MS,
                lambda: self.run_work(lambda: self._propose(parent)),
            )
            return
        self._batch_timer.cancel()
        op = execute_transactions(txs, parent.hash)
        self.charge(self.config.costs.exec_cost(len(txs)))
        block = create_leaf(txs, op, parent, view=self.view, proposer=self.node_id)
        try:
            cert = self.proposer.tee_propose(block)
        except EnclaveAbort:
            self.requeue_batch(txs)
            return
        finally:
            self.charge_enclave(self.proposer)
        self._proposed_height = block.height
        self.store.add(block)
        if self.listener is not None:
            self.listener.on_propose(self.node_id, block, self.sim.now)
        if self._obs.enabled:
            self._obs.block_proposed(block.hash, self.view, self.node_id,
                                     len(block.txs), self.sim.now)
        self.broadcast(FProposal(block=block, block_cert=cert))
        self._cast_vote(block)

    # ------------------------------------------------------------------
    def on_FProposal(self, msg: FProposal, src: int) -> None:
        """Validate the leader's block and broadcast a vote."""
        block, cert = msg.block, msg.block_cert
        self.charge_verify(1)
        self.charge_hash(block.wire_size())
        if not cert.validate(self.keyring):
            return
        if cert.block_hash != block.hash:
            return
        if cert.signature.signer != self.leader_of(block.view):
            return
        if block.view < self.view:
            return  # from a deposed leader
        self.with_full_ancestry(
            block, lambda b: self.run_work(lambda: self._cast_vote(b)), hint=src
        )

    def _cast_vote(self, block: Block) -> None:
        self.charge(self.config.costs.exec_cost(len(block.txs)))
        if self.config.deep_validation:
            parent = self.store.get(block.parent_hash)
            if parent is None or execute_transactions(block.txs, parent.hash) != block.op:
                return
        self._blocks_by_hash_pending[block.hash] = block
        if self._obs.enabled:
            self._obs.block_milestone(block.hash, "vote", self.node_id,
                                      self.sim.now)
        self.charge_sign(1)
        vote = FVote(
            block_hash=block.hash, view=block.view,
            signature=sign(self.keypair.private, "FVOTE", block.hash, block.view),
        )
        self.broadcast(vote)
        self._collect_vote(vote)

    def on_FVote(self, msg: FVote, src: int) -> None:
        """Everyone collects everyone's votes (O(n²))."""
        self.charge_verify(1)
        if not msg.validate(self.keyring):
            return
        self._collect_vote(msg)

    def _collect_vote(self, vote: FVote) -> None:
        if self.store.is_committed(vote.block_hash):
            return
        bucket = self._votes.setdefault((vote.block_hash, vote.view), {})
        bucket[vote.signature.signer] = vote
        if len(bucket) < self.quorum:
            return
        block = self._blocks_by_hash_pending.get(vote.block_hash) or \
            self.store.get(vote.block_hash)
        if block is None:
            return
        if not self.store.has_full_ancestry(block):
            self.with_full_ancestry(block, lambda b: self._commit(b))
            return
        self._commit(block)

    def _commit(self, block: Block) -> None:
        if self.store.is_committed(block.hash):
            return
        self.commit_block(block)
        self.pacemaker.progress()
        self.pacemaker.view_started(self.view)
        self._blocks_by_hash_pending.pop(block.hash, None)
        for key in [k for k in self._votes if k[0] == block.hash]:
            del self._votes[key]
        if self.is_leader(self.view):
            # Defer through the event queue: with n = 1 a synchronous
            # re-propose would recurse commit→propose→commit forever.
            self.after(0.0, lambda: self.run_work(lambda: self._propose(block)))

    # ------------------------------------------------------------------
    # View change (leader replacement)
    # ------------------------------------------------------------------
    def _on_timeout(self, view: int) -> None:
        self.run_work(self._send_view_change)

    def _send_view_change(self) -> None:
        new_view = self.view + 1
        self.charge_sign(1)
        vc = FViewChange(
            new_view=new_view,
            signature=sign(self.keypair.private, "FVC", new_view),
        )
        self.broadcast(vc)
        self._collect_vc(vc)
        self.pacemaker.view_started(self.view)

    def on_FViewChange(self, msg: FViewChange, src: int) -> None:
        """Collect 2f+1 view-change votes to install the next leader."""
        self.charge_verify(1)
        if not msg.validate(self.keyring):
            return
        self._collect_vc(msg)

    def _collect_vc(self, msg: FViewChange) -> None:
        if msg.new_view <= self.view:
            return
        voters = self._vc_votes.setdefault(msg.new_view, set())
        voters.add(msg.signature.signer)
        if len(voters) < self.quorum:
            return
        self.view = msg.new_view
        self.pacemaker.view_started(self.view)
        if self._obs.enabled:
            self._obs.instant("view_change", self.node_id, self.sim.now,
                              view=self.view)
        self._vc_votes = {v: s for v, s in self._vc_votes.items() if v > self.view}
        if self.is_leader(self.view):
            self._proposed_height = self.store.committed_tip.height
            self._propose(self.store.committed_tip)


__all__ = ["FlexiBFTNode", "FlexiProposer", "FProposal", "FVote", "FViewChange"]
