"""The CHECKER trusted component (paper Sec. 4.3, Algorithms 2 and 3).

The checker binds each consensus message to a unique identity per view (no
equivocation) and remembers the latest (un)prepared block from a leader.
Volatile state::

    vi        current view number
    proposed  has this node's TEE certified a proposal for view vi?
    voted     has this node's TEE certified a store/vote for view vi?
    prepv     view of the latest stored block
    preph     hash of the latest stored block

**Flag semantics.**  The paper's Algorithm 2 tracks a single ``flag``; its
interplay between TEEprepare and TEEstore is under-specified (a literal
reading would let a leader that stores its own block reset ``flag`` and
certify a second proposal for the same view with replayed view
certificates).  We track ``proposed`` and ``voted`` separately, which is
the weakest state that makes Lemma 1 (no equivocation for block *and*
store certificates) hold; both reset when ``vi`` advances.

**One body per rule.**  :class:`Checker` holds what the three chained-TEE
protocols' checkers share — the gate, entering a view, admitting a block
certificate, the accumulator justification, the proposal guard — and
:class:`AchillesChecker` holds Algorithm 2 itself.  OneShot composes these
ECALL bodies (through ``__wrapped__``, so one ECALL transition covers
prepare + store) and Damysus calls the shared checks; neither restates
them.

**No persistent counter.**  Unlike the -R baselines, nothing here touches
stable storage on the hot path — a reboot simply wipes this state and the
node must run the rollback-resilient recovery (Sec. 4.5) before the
checker will certify anything again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.chain.block import Block
from repro.crypto.hashing import GENESIS_HASH, digest_of
from repro.crypto.keys import Keyring, PrivateKey
from repro.crypto.signatures import CryptoProfile
from repro.errors import EnclaveAbort
from repro.core.certificates import (
    AccumulatorCertificate,
    BlockCertificate,
    CommitmentCertificate,
    RecoveryReply,
    RecoveryRequest,
    StoreCertificate,
    ViewCertificate,
)
from repro.tee.enclave import Enclave, EnclaveProfile, ecall
from repro.tee.sealing import UntrustedStore


@dataclass
class CheckerState:
    """Volatile checker state (wiped on reboot)."""

    vi: int = 0
    proposed: bool = False
    voted: bool = False
    prepv: int = 0
    preph: str = GENESIS_HASH


class Checker(Enclave):
    """The checks every chained-TEE CHECKER makes, whatever it votes on."""

    IDENTITY = "checker"
    STATE = CheckerState

    def __init__(
        self,
        node_id: int,
        n: int,
        f: int,
        private_key: PrivateKey,
        keyring: Keyring,
        profile: Optional[EnclaveProfile] = None,
        crypto: Optional[CryptoProfile] = None,
        store: Optional[UntrustedStore] = None,
    ) -> None:
        super().__init__(
            identity=f"{self.IDENTITY}/{node_id}", profile=profile,
            crypto=crypto, store=store,
        )
        self.node_id = node_id
        self.n = n
        self.f = f
        # Key material comes from the sealed, static configuration
        # (Sec. 4.5); it survives reboots by assumption.
        self._sk = private_key
        self._keyring = keyring
        self.state = self.STATE()
        #: Rebooted, and the volatile state is not back yet (through the
        #: recovery protocol or a sealed restore): every rule refuses.
        self.recovering = False

    def leader_of(self, view: int) -> int:
        """Round-robin schedule known to the trusted code."""
        return view % self.n

    def wipe_volatile_state(self) -> None:
        """Reboot: all consensus state is lost until it is recovered."""
        self.state = self.STATE()
        self.recovering = True

    def _require_ready(self) -> None:
        if self.recovering:
            raise EnclaveAbort("checker state not restored after reboot")

    def _enter(self, view: int) -> None:
        """A new view: nothing proposed, nothing voted yet."""
        st = self.state
        st.vi = view
        st.proposed = False
        st.voted = False

    def _admit(self, block_cert: BlockCertificate) -> int:
        """How a vote on a proposal starts (Algorithm 2, lines 16–18): the
        block certificate is valid, from the leader of its view and not
        stale; the checker moves up to that view, which is returned."""
        self._require_ready()
        self.charge_verify(1)
        if not block_cert.validate(self._keyring):
            raise EnclaveAbort("invalid block certificate")
        v = block_cert.view
        if block_cert.signature.signer != self.leader_of(v):
            raise EnclaveAbort("block certificate not from the leader of its view")
        if v < self.state.vi:
            raise EnclaveAbort(f"stale block certificate (view {v} < {self.state.vi})")
        if v > self.state.vi:
            self._enter(v)
        return v

    def _extends_accumulated(self, block: Block, acc: AccumulatorCertificate) -> None:
        """The NEW-VIEW justification (Algorithm 2, lines 6–9): this
        node's own accumulator, for the current view, names the parent."""
        self.charge_verify(1)
        if not acc.validate(self._keyring, self.f + 1):
            raise EnclaveAbort("invalid accumulator certificate")
        if acc.signature.signer != self.node_id:
            raise EnclaveAbort("accumulator certificate from another node")
        if acc.target_view != self.state.vi:
            raise EnclaveAbort(
                f"accumulator targets view {acc.target_view}, checker at {self.state.vi}"
            )
        if block.parent_hash != acc.block_hash:
            raise EnclaveAbort("block does not extend the accumulated block")

    def _claim_proposal(self, block: Block) -> None:
        """One proposal per view, by its leader (lines 11–13)."""
        st = self.state
        if st.proposed:
            raise EnclaveAbort("already proposed in this view (flag == 1)")
        if block.view != st.vi:
            raise EnclaveAbort(f"block view {block.view} != checker view {st.vi}")
        if self.leader_of(st.vi) != self.node_id:
            raise EnclaveAbort(f"node {self.node_id} is not the leader of view {st.vi}")
        st.proposed = True

    def _certify_view(self) -> ViewCertificate:
        """``⟨NEW-VIEW, preph, prepv, vi⟩`` for the state as it stands."""
        st = self.state
        self.charge_sign(1)
        return ViewCertificate.issue(
            self._sk, block_hash=st.preph, block_view=st.prepv,
            current_view=st.vi)


class AchillesChecker(Checker):
    """Achilles' CHECKER component."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pending_nonce: Optional[str] = None
        self._nonce_counter = 0

    def wipe_volatile_state(self) -> None:
        """Reboot: all consensus state is lost; recovery is mandatory."""
        super().wipe_volatile_state()
        self._pending_nonce = None

    def cold_boot(self, preh: str) -> None:
        """Operator-attested synchronized cold boot after a *total* group
        outage.

        Algorithm 3 cannot run when every replica rebooted at once — it
        needs f+1 RUNNING helpers and none exist — so the operator
        re-provisions the group exactly as at first deployment, except the
        latest-stored anchor is the durable committed tip (``preh``)
        instead of genesis.  This skips recovery, which is sound only
        under the operator's attestation that *no* replica retained
        volatile state: with every checker wiped and every in-flight
        message dead, a fresh view-0 incarnation can conflict with
        nothing.  It is NOT safe after a partial outage — that is what
        recovery is for — hence a separate provisioning call rather than
        a relaxation of ``tee_recover``.
        """
        self.state = CheckerState(preph=preh)
        self.recovering = False
        self._pending_nonce = None

    # ------------------------------------------------------------------
    # TEEprepare (Algorithm 2, lines 5–14)
    # ------------------------------------------------------------------
    @ecall
    def tee_prepare(
        self,
        block: Block,
        justification: AccumulatorCertificate | CommitmentCertificate,
    ) -> BlockCertificate:
        """Certify ``block`` as this view's unique proposal.

        The justification is either an accumulator certificate for the
        current view (NEW-VIEW path) or a commitment certificate for the
        previous view (the New-View optimization, Sec. 4.4).
        """
        self._require_ready()
        self.charge_hash(block.wire_size())
        if isinstance(justification, AccumulatorCertificate):
            self._extends_accumulated(block, justification)
        elif isinstance(justification, CommitmentCertificate):
            qc = justification
            self.charge_verify(self.f + 1)
            if not qc.validate(self._keyring, self.f + 1):
                raise EnclaveAbort("invalid commitment certificate")
            if block.parent_hash != qc.block_hash:
                raise EnclaveAbort("block does not extend the committed block")
            if qc.view + 1 < self.state.vi:
                raise EnclaveAbort("stale commitment certificate")
            if qc.view >= self.state.vi:
                # Advance into the view right after the committed one.
                self._enter(qc.view + 1)
        else:
            raise EnclaveAbort("unsupported justification type")
        self._claim_proposal(block)
        self.charge_sign(1)
        return BlockCertificate.issue(
            self._sk, block_hash=block.hash, view=self.state.vi)

    # ------------------------------------------------------------------
    # TEEstore (Algorithm 2, lines 16–20)
    # ------------------------------------------------------------------
    @ecall
    def tee_store(self, block_cert: BlockCertificate) -> StoreCertificate:
        """Record the leader's block as latest-stored and emit the vote."""
        v = self._admit(block_cert)
        st = self.state
        if st.voted:
            raise EnclaveAbort("already voted in this view")
        st.voted = True
        st.prepv = v
        st.preph = block_cert.block_hash
        self.charge_sign(1)
        return StoreCertificate.issue(
            self._sk, block_hash=block_cert.block_hash, view=v)

    # ------------------------------------------------------------------
    # TEEview (Algorithm 2, lines 27–29)
    # ------------------------------------------------------------------
    @ecall
    def tee_view(self) -> ViewCertificate:
        """Enter the next view (timeout path) and certify the latest block."""
        self._require_ready()
        self._enter(self.state.vi + 1)
        return self._certify_view()

    # ------------------------------------------------------------------
    # Recovery TEE code (Algorithm 3, lines 15–31)
    # ------------------------------------------------------------------
    @ecall
    def tee_request(self) -> RecoveryRequest:
        """``TEErequest``: mint a nonce-carrying recovery request."""
        self._nonce_counter += 1
        nonce = digest_of("nonce", self.identity, self.reboots, self._nonce_counter)
        self._pending_nonce = nonce
        self.charge_sign(1)
        return RecoveryRequest.issue(
            self._sk, nonce=nonce, requester=self.node_id)

    @ecall
    def tee_reply(self, request: RecoveryRequest) -> RecoveryReply:
        """``TEEreply``: report checker state to a recovering peer.

        A node that is itself recovering must not answer (Sec. 4.5).
        """
        self._require_ready()
        self.charge_verify(1)
        if not request.validate(self._keyring):
            raise EnclaveAbort("invalid recovery request signature")
        st = self.state
        self.charge_sign(1)
        return RecoveryReply.issue(
            self._sk, preh=st.preph, prepv=st.prepv, vi=st.vi,
            requester=request.requester, nonce=request.nonce)

    @ecall
    def tee_recover(
        self,
        leader_reply: RecoveryReply,
        replies: Sequence[RecoveryReply],
    ) -> ViewCertificate:
        """``TEErecover``: validate f+1 replies and restore checker state.

        Checks (Sec. 4.5 step ③):

        * every reply carries this request's nonce and this node's id;
        * ≥ f+1 distinct, validly signed repliers;
        * ``leader_reply`` is in the set, carries the highest view, and was
          signed by the **leader of that view** (without this rule the
          Sec. 4.5 five-node attack commits conflicting blocks);
        * the view jumps to ``v' + 2`` — the node cannot know what it sent
          in view ``v'`` before the crash, and the New-View optimization
          means ``v'+1`` may already have a proposal keyed to its vote
          (Lemma 1), so both views are skipped.

        The latest-stored block, by contrast, is adopted from the reply
        with the highest ``prepv`` — NOT from ``leader_reply``.  Any f+1
        replies intersect the f+1 storers of the latest committed block in
        at least one node, so the maximum ``prepv`` never trails a commit;
        the highest-*view* leader, however, may have missed that block's
        proposal entirely (e.g. on a lossy fabric), and adopting its stale
        ⟨preph, prepv⟩ would roll this node's storage state back past a
        block it helped commit — enough view certificates like that let a
        later leader re-propose the committed height (observed as a
        conflicting commit in the lossy chaos campaigns).
        """
        if not self.recovering:
            raise EnclaveAbort("checker is not in recovery")
        if self._pending_nonce is None:
            raise EnclaveAbort("no outstanding recovery request")

        for reply in replies:
            if reply.nonce != self._pending_nonce or reply.requester != self.node_id:
                raise EnclaveAbort("reply does not match outstanding request nonce/id")
        self.charge_verify(len(replies))
        valid_signers = {
            r.signer for r in replies if r.validate(self._keyring)
        }
        if len(valid_signers) < self.f + 1:
            raise EnclaveAbort(
                f"need f+1={self.f + 1} valid recovery replies, got {len(valid_signers)}"
            )
        if leader_reply not in list(replies):
            raise EnclaveAbort("leader reply not among the presented replies")
        if not leader_reply.validate(self._keyring):
            raise EnclaveAbort("leader reply signature invalid")
        highest = max(r.vi for r in replies if r.signer in valid_signers)
        if leader_reply.vi < highest:
            raise EnclaveAbort("leader reply does not carry the highest view")
        if leader_reply.signer != self.leader_of(leader_reply.vi):
            raise EnclaveAbort(
                "highest-view reply must come from the leader of that view"
            )

        best_stored = max(
            (r for r in replies if r.signer in valid_signers),
            key=lambda r: r.prepv,
        )
        self._enter(leader_reply.vi + 2)
        self.state.prepv = best_stored.prepv
        self.state.preph = best_stored.preh
        self.recovering = False
        self._pending_nonce = None
        return self._certify_view()


__all__ = ["Checker", "AchillesChecker", "CheckerState"]
