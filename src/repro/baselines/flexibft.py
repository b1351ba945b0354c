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

from repro.baselines.common import (RStateMixin, StableLeaderNode,
                                    ViewChangeVote)
from repro.chain.block import Block
from repro.chain.execution import execute_transactions
from repro.core.certificates import BlockCertificate
from repro.crypto.keys import Keyring, PrivateKey
from repro.crypto.signatures import (
    CryptoProfile,
    Signature,
    SignedStatement,
    hash_view_digest,
)
from repro.errors import EnclaveAbort
from repro.net.message import HASH_BYTES, HEADER_BYTES, SIGNATURE_BYTES
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
        self.protect_state_update()
        self.charge_sign(1)
        return BlockCertificate.issue(
            self._sk, block_hash=block.hash, view=block.view)

    def _sealed_payload(self) -> int:
        return self.last_height

    def wipe_volatile_state(self) -> None:
        """Reboot: the height marker is lost, and nothing loads the seal
        back — no replica reboots its proposer (ROADMAP item 5)."""
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
class FVote(SignedStatement):
    """Node → all nodes: a signed vote (the O(n²) pattern)."""

    block_hash: str
    view: int
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return ("FVOTE", self.block_hash, self.view)

    statement_digest = hash_view_digest("FVOTE")

    #: Envelope size (``intern_size``): every vote has the same one.
    _env_size = HEADER_BYTES + 5 + HASH_BYTES + 8 + SIGNATURE_BYTES

    def wire_size(self) -> int:
        """Serialized size."""
        return 5 + HASH_BYTES + 8 + SIGNATURE_BYTES


@dataclass(frozen=True)
class FViewChange(ViewChangeVote):
    """Node → all: vote to replace the leader after a timeout."""

    TAG = "FVC"


class FlexiBFTNode(StableLeaderNode):
    """A FlexiBFT replica (n = 3f+1, quorum 2f+1)."""

    BYZ_PROPOSAL_KINDS = ("FProposal",)
    BYZ_VOTE_KINDS = ("FVote",)
    # Commits are local once 2f+1 votes collect; nothing to hide.
    BYZ_DECIDE_KINDS = ()
    VIEW_CHANGE = FViewChange

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.proposer = FlexiProposer(
            node_id=self.node_id, n=self.config.n,
            private_key=self.keypair.private, keyring=self.keyring,
            profile=self.config.enclave, crypto=self.config.crypto,
            counter=self._make_counter(),
        )
        # Keyed (view, block hash); a bucket goes when its block commits.
        self._votes = self._new_collector(self.config.quorum, once=False)
        self._proposed_height = 0
        self._blocks_by_hash_pending: dict[str, Block] = {}

    # ------------------------------------------------------------------
    def _lead(self) -> None:
        """Leader of a fresh epoch (boot, reboot, view change)."""
        self._proposed_height = self.store.committed_tip.height
        self._propose(self.store.committed_tip)

    def _propose(self, parent: Block) -> None:
        if not self.is_leader(self.view) or parent.height < self._proposed_height:
            return
        block = self._build_block(parent, self.view,
                                  lambda: self._propose(parent))
        if block is None:
            return
        try:
            cert = self.proposer.tee_propose(block)
        except EnclaveAbort:
            self.requeue_batch(block.txs)
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
        vote = FVote.issue(
            self.keypair.private, block_hash=block.hash, view=block.view)
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
        if self._votes.add((vote.view, vote.block_hash),
                           vote.signature.signer, vote) is None:
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
        self._votes.discard((block.view, block.hash))
        if self.is_leader(self.view):
            # Defer through the event queue: with n = 1 a synchronous
            # re-propose would recurse commit→propose→commit forever.
            self.after(0.0, lambda: self.run_work(lambda: self._propose(block)))

    # ------------------------------------------------------------------
    # Lifecycle and view change (the proposer's height marker persists)
    # ------------------------------------------------------------------
    def _reset_volatile(self) -> None:
        super()._reset_volatile()
        self._blocks_by_hash_pending.clear()

    on_FViewChange = StableLeaderNode._on_view_change


__all__ = ["FlexiBFTNode", "FlexiProposer", "FProposal", "FVote", "FViewChange"]
