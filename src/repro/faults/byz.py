"""Composable Byzantine strategy engine.

The paper's threat model (Sec. 3.1) gives the adversary the *untrusted*
code of up to ``f`` replicas: it can lie, equivocate, withhold or tamper
with messages, replay stale recovery material, skip persistent-counter
values, and feed stale sealed blobs to a rebooting enclave — but it can
never alter the enclave logic itself (it may only *call* ECALLs).  This
module models exactly that surface as small, stackable
:class:`ByzStrategy` behaviors that :func:`make_byzantine` weaves into
*any* protocol's node class:

* every outgoing message passes through the strategy chain
  (:meth:`ByzStrategy.on_send` can tamper, redirect, or suppress it);
* every incoming message can be intercepted before the honest handler
  (:meth:`ByzStrategy.on_deliver`);
* a deterministic periodic tick lets strategies mount attacks that need
  no trigger (forged proposals, counter burns, garbage injection) so a
  configured attack is *guaranteed* to engage regardless of whether the
  Byzantine node ever becomes leader;
* reboot is bracketed (:meth:`ByzStrategy.pre_reboot`) so a strategy can
  hand the enclave a stale sealed blob through the standard
  :class:`~repro.tee.rollback.RollbackAttacker` interface.

Each strategy counts ``attempts`` (attack actions actually mounted) and
``denials`` (attacks the TEE refused on the spot via ``EnclaveAbort``).
A campaign whose configured attack never engaged proves nothing — the
chaos harness fails such runs (see :mod:`repro.faults.chaos`).

Strategies target protocol-generic hook points: the ``BYZ_*_KINDS``
message-kind tuples every node class declares, the ``checker``/``usig``
TEE attributes, and the recovery message types.  ``applies_to`` reports
whether a strategy is meaningful for a node class at all; the campaign
generator records skipped (inapplicable) strategies instead of silently
dropping them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Type

from repro.crypto.hashing import digest_of
from repro.errors import EnclaveAbort
from repro.tee.rollback import RollbackAttacker, mount_rollback_attack

#: Key under which a Byzantine replica persists captured recovery
#: responses in its *untrusted* store — host-side disk, so the capture
#: survives the attacker's own reboots (the enclave wipes only volatile
#: state; `UntrustedStore` retains everything).
REPLAY_CAPTURE_KEY = "byz/replay-capture"

#: Interval of the deterministic strategy tick (ms).  Frequent enough
#: that every attack engages several times within a smoke-length
#: campaign, coarse enough not to dominate the event count.
TICK_MS = 120.0


@dataclass(frozen=True)
class ByzGarbage:
    """An unsigned, meaningless message no protocol has a handler for.

    Receivers drop it in ``ReplicaBase._dispatch`` (traced as
    ``unhandled_message``) — the injection attack every protocol must
    shrug off.
    """

    blob: str

    def wire_size(self) -> int:
        """Serialized size."""
        return 8 + len(self.blob)


def _tamper_block(block: Any, tag: str) -> Any:
    """A conflicting block for the same slot: same parent/height/view,
    different content hash (the ``op`` digest is perturbed)."""
    return dataclasses.replace(block, op=digest_of("byz", tag, block.op))


class ByzStrategy:
    """One stackable Byzantine behavior.

    Subclasses override the hooks they need; every hook receives the
    node so strategies stay stateless across nodes (per-node state lives
    in ``self.state``, reset by :meth:`post_reboot` exactly like the
    attacker's volatile memory would be).
    """

    #: Registry / CLI name.
    name: str = ""
    #: Attacks that only make sense once a *recovery* runs (they need an
    #: honest crash victim to interact with).
    needs_recovery: bool = False

    def __init__(self) -> None:
        self.state: dict[str, Any] = {}
        self.attempts = 0
        self.denials = 0

    # -- class-level applicability -------------------------------------
    @classmethod
    def applies_to(cls, node_cls: type) -> bool:
        """Is this attack meaningful against ``node_cls`` at all?"""
        return True

    # -- runtime hooks -------------------------------------------------
    def on_start(self, node: Any) -> None:
        """Called once after the node starts (and after each reboot)."""

    def on_send(self, node: Any, dst: int, payload: Any) -> Optional[Any]:
        """Filter one outgoing message.  Return the (possibly tampered)
        payload to pass down the chain, or ``None`` to suppress it."""
        return payload

    def on_deliver(self, node: Any, payload: Any, src: int) -> bool:
        """Intercept one incoming message *before* the honest handler.
        Return ``True`` to consume it (the honest handler never runs)."""
        return False

    def on_tick(self, node: Any) -> None:
        """Mount trigger-free attacks on the deterministic tick."""

    def on_propose(self, node: Any, args: tuple) -> None:
        """Called right after the node's honest ``_propose`` (for
        protocols that have one), with the same arguments — the moment a
        leader-side attack has a valid justification in hand."""

    def pre_reboot(self, node: Any,
                   attacker: Optional[RollbackAttacker]) -> Optional[RollbackAttacker]:
        """Chance to substitute/augment the rollback attacker a reboot
        will unseal through (stale-sealed-blob feeding)."""
        return attacker

    def post_reboot(self, node: Any) -> None:
        """The attacker's volatile memory is gone; anything it wants to
        keep must have been persisted host-side (untrusted store)."""
        self.state.clear()


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------
class ReplayRecoveryStrategy(ByzStrategy):
    """Capture a recovery response, persist it on (untrusted) disk, and
    serve the stale capture to every *later* recovery episode — across
    the attacker's own reboots.  Defense: the per-episode nonce minted
    inside TEErequest (paper Sec. 4.5 step ①)."""

    name = "replay-recovery"
    needs_recovery = True

    @classmethod
    def applies_to(cls, node_cls: type) -> bool:
        return hasattr(node_cls, "on_RecoveryRequestMsg")

    def _capture(self, node: Any) -> Optional[Any]:
        cached = self.state.get("capture")
        if cached is not None:
            return cached
        # After our own reboot the in-memory capture is gone; reload the
        # persisted copy from the host-side store.
        stored = node.checker.store.fetch(REPLAY_CAPTURE_KEY)
        if stored is not None:
            self.state["capture"] = stored
        return stored

    def on_send(self, node: Any, dst: int, payload: Any) -> Optional[Any]:
        if type(payload).__name__ == "RecoveryResponseMsg":
            if self._capture(node) is None:
                self.state["capture"] = payload
                node.checker.store.store(REPLAY_CAPTURE_KEY, payload)
        return payload

    def on_deliver(self, node: Any, payload: Any, src: int) -> bool:
        if type(payload).__name__ != "RecoveryRequestMsg":
            return False
        capture = self._capture(node)
        if capture is None:
            return False  # nothing to replay yet: answer honestly (and capture)
        if capture.reply.nonce == payload.request.nonce:
            return False  # same episode: a replay would be the honest answer
        # Stale replay: a response minted for an older episode (possibly a
        # different requester).  The victim's nonce check must reject it.
        self.attempts += 1
        node.send_to(src, capture)
        return True


class LieRecoveryStrategy(ByzStrategy):
    """Answer recovery requests with a *tampered* response: the unsigned
    wrapper is forwarded but the reply's nonce no longer matches the
    outstanding request.  Defense: requester-side nonce/identity check
    before any signature work."""

    name = "lie-recovery"
    needs_recovery = True

    @classmethod
    def applies_to(cls, node_cls: type) -> bool:
        return hasattr(node_cls, "on_RecoveryRequestMsg")

    def on_send(self, node: Any, dst: int, payload: Any) -> Optional[Any]:
        if type(payload).__name__ != "RecoveryResponseMsg":
            return payload
        self.attempts += 1
        reply = dataclasses.replace(
            payload.reply, nonce=digest_of("byz-lie", payload.reply.nonce)
        )
        return dataclasses.replace(payload, reply=reply)


class SkipCounterStrategy(ByzStrategy):
    """USIG counter abuse: burn counter values out-of-band (skips) and
    re-broadcast an already-consumed certificate (reuse).  Defense:
    TrInc's ordered-consumption rule — receivers reject reuse outright
    ('UI replay'), and strict (gapless) verifiers reject the skip too
    (`tests/unit/test_trinc_skip.py`)."""

    name = "skip-counter"
    #: Counter values deliberately burned per incarnation.
    BURNS = 2

    @classmethod
    def applies_to(cls, node_cls: type) -> bool:
        # The USIG family (MinBFT / MinBFT-R).
        return hasattr(node_cls, "on_MPrepare")

    def on_send(self, node: Any, dst: int, payload: Any) -> Optional[Any]:
        if type(payload).__name__ == "MCommit":
            self.state["last_commit"] = payload
        return payload

    def on_tick(self, node: Any) -> None:
        if self.state.get("burned", 0) < self.BURNS:
            burn = self.state.get("burned", 0) + 1
            self.state["burned"] = burn
            try:
                node.usig.create_ui(
                    digest_of("byz-skip", node.node_id, burn, node.epoch))
                self.attempts += 1
            except EnclaveAbort:
                self.denials += 1
        stale = self.state.get("last_commit")
        if stale is not None and self.state.get("replayed") is not stale:
            # Re-broadcast a consumed UI exactly once per capture.
            self.state["replayed"] = stale
            self.attempts += 1
            for dst in node.peers:
                node.send_to(dst, stale)


class EquivocateStrategy(ByzStrategy):
    """Equivocation, both flavors the untrusted code can try:

    * **split horizon** — when this node legitimately proposes, half the
      peers receive a *conflicting* block for the same slot;
    * **forged proposal** (tick) — replay the last captured foreign
      proposal with a tampered block, claiming the slot.

    Defense: the TEE binds its one-per-slot certificate/UI to the block
    hash, so receivers reject the conflicting copy (certificate/digest
    mismatch, leadership checks).  Unsigned baselines (BRaft) accept it —
    the negative control that demonstrably breaks agreement."""

    name = "equivocate"

    def on_propose(self, node: Any, args: tuple) -> None:
        """The sharpest form: right after proposing honestly, ask the TEE
        to certify a *second*, conflicting block for the same slot with
        the same (valid) justification.  The enclave must refuse — every
        refusal is a counted denial."""
        from repro.chain.block import create_leaf
        from repro.chain.execution import execute_transactions
        from repro.chain.transaction import EMPTY_BATCH

        parent = args[0]
        txs = EMPTY_BATCH
        evil = create_leaf(txs, execute_transactions(txs, parent.hash), parent,
                           view=getattr(node, "view", 0), proposer=node.node_id)
        proposer = getattr(node, "proposer", None)
        if proposer is not None:  # FlexiBFT: height-keyed proposer TEE
            self.attempts += 1
            try:
                proposer.tee_propose(evil)
            except EnclaveAbort:
                self.denials += 1
            finally:
                node.charge_enclave(proposer)
            return
        if len(args) != 3:
            return
        _parent, justification, view = args
        evil = dataclasses.replace(evil, view=view)
        checker = node.checker
        self.attempts += 1
        try:
            if hasattr(checker, "tee_prepare_fast"):  # OneShot fast/slow paths
                if type(justification).__name__ == "AccumulatorCertificate":
                    checker.tee_prepare_slow(evil, justification)
                else:
                    checker.tee_prepare_fast(evil, justification)
            else:  # Achilles / Damysus checkers
                checker.tee_prepare(evil, justification)
        except EnclaveAbort:
            self.denials += 1
        finally:
            node.charge_enclave(checker)

    def _tamper_payload(self, node: Any, payload: Any) -> Optional[Any]:
        kind = type(payload).__name__
        if kind == "AppendEntries":
            if not payload.entries:
                return None  # heartbeat: nothing to equivocate on
            entries = tuple(
                dataclasses.replace(e, block=_tamper_block(e.block, "fork"))
                for e in payload.entries
            )
            return dataclasses.replace(payload, entries=entries)
        block = getattr(payload, "block", None)
        if block is None:
            return None
        return dataclasses.replace(payload, block=_tamper_block(block, "fork"))

    def on_send(self, node: Any, dst: int, payload: Any) -> Optional[Any]:
        if type(payload).__name__ not in node.BYZ_PROPOSAL_KINDS:
            return payload
        if dst % 2 == 0:
            return payload  # this half sees the honest proposal
        tampered = self._tamper_payload(node, payload)
        if tampered is None:
            return payload
        self.attempts += 1
        return tampered

    def on_deliver(self, node: Any, payload: Any, src: int) -> bool:
        if type(payload).__name__ in node.BYZ_PROPOSAL_KINDS:
            self.state["seen"] = payload
        return False

    def on_tick(self, node: Any) -> None:
        if hasattr(node, "log"):  # BRaft: forge ahead of the real leader
            self._tick_braft(node)
            return
        seen = self.state.get("seen")
        if seen is None:
            return
        forged = self._tamper_payload(node, seen)
        if forged is None:
            return
        self.attempts += 1
        for dst in node.peers:
            node.send_to(dst, forged)

    def _tick_braft(self, node: Any) -> None:
        from repro.baselines.braft import AppendEntries, LogEntry
        from repro.chain.block import create_leaf
        from repro.chain.transaction import EMPTY_BATCH

        if node.term <= 0:
            return  # no leader elected yet: a term-0 forgery is inert
        parent = node.log[-1].block if node.log else node.store.committed_tip
        forged = create_leaf(
            txs=EMPTY_BATCH,
            op=digest_of("byz-fork", node.term, parent.hash),
            parent=parent, view=node.term, proposer=node.node_id,
        )
        self.attempts += 1
        msg = AppendEntries(
            term=node.term, leader=node.leader_id if node.leader_id is not None
            else node.node_id,
            prev_index=len(node.log),
            prev_term=node.log[-1].term if node.log else 0,
            entries=(LogEntry(term=node.term, block=forged),),
            leader_commit=node.commit_index,
        )
        for dst in node.peers:
            if dst % 2 == 1:  # fork only a minority's logs
                node.send_to(dst, msg)


class HideDecideStrategy(ByzStrategy):
    """Suppress commit notifications towards a victim set, trying to
    leave victims behind the committed chain.  Defense: chained commits —
    any later certificate/ancestor fetch catches the victim up."""

    name = "hide-decide"

    @classmethod
    def applies_to(cls, node_cls: type) -> bool:
        return bool(node_cls.BYZ_DECIDE_KINDS)

    def victims(self, node: Any) -> frozenset[int]:
        v = self.state.get("victims")
        if v is None:
            # `hidden_from` on the node class lets tests pin the victim
            # set; the default picks the highest-numbered peer.
            v = getattr(node, "hidden_from", None) or frozenset({max(node.peers)})
            self.state["victims"] = v
        return v

    def on_send(self, node: Any, dst: int, payload: Any) -> Optional[Any]:
        if (type(payload).__name__ in node.BYZ_DECIDE_KINDS
                and dst in self.victims(node)):
            self.attempts += 1
            return None
        return payload


class WithholdVoteStrategy(ByzStrategy):
    """Never vote.  Defense: quorums are sized f+1-of-2f+1 (2f+1-of-3f+1
    for FlexiBFT), so the remaining honest votes still commit."""

    name = "withhold-vote"

    def on_send(self, node: Any, dst: int, payload: Any) -> Optional[Any]:
        if type(payload).__name__ in node.BYZ_VOTE_KINDS:
            self.attempts += 1
            return None
        return payload


class StaleSealStrategy(ByzStrategy):
    """Feed the rebooting enclave its *oldest* sealed blob (maximal
    rollback) via the standard :class:`RollbackAttacker` power.  Defense
    (-R variants): the persistent counter disagrees with the sealed
    version and TEErestore aborts — the node stays down rather than run
    on stale state.  Plain Damysus/OneShot accept the stale blob: the
    negative control the `sealed-state-freshness` monitor catches."""

    name = "stale-seal"

    @classmethod
    def applies_to(cls, node_cls: type) -> bool:
        # Only protocols whose rejoin unseals through an attacker (i.e.
        # that trust sealed storage at all) have this surface.
        return node_cls.RESTORES_FROM_SEAL

    def pre_reboot(self, node: Any,
                   attacker: Optional[RollbackAttacker]) -> Optional[RollbackAttacker]:
        if attacker is None:
            attacker = mount_rollback_attack(node)
        attacker.serve_oldest("rstate")
        self.attempts += 1
        self.state["attacker"] = attacker
        return attacker


class StaleSnapshotStrategy(ByzStrategy):
    """Feed the rebooting replica its *oldest* sealed application
    snapshot (maximal rollback of executed state) through the standard
    :class:`RollbackAttacker` power over the snapshot vault's untrusted
    store.  Defense: the restore path replays the retained committed tail
    on top of whatever it unseals — a rolled-back snapshot either catches
    back up (attack neutralized) or leaves a gap, and the defended path
    then discards the state and pulls a certified fresh snapshot from
    peers (SNAP-REQ).  The ``snapshot_trust_sealed`` baseline runs on the
    stale state instead: the negative control the
    ``sealed-state-freshness`` monitor catches."""

    name = "stale-snapshot"

    @classmethod
    def applies_to(cls, node_cls: type) -> bool:
        # Every ReplicaBase protocol grows the snapshot surface when the
        # deployment enables snapshots; the vault check happens at reboot
        # time because applicability is class-level but snapshots are a
        # config knob.
        return hasattr(node_cls, "_rebuild_app_state")

    def pre_reboot(self, node: Any,
                   attacker: Optional[RollbackAttacker]) -> Optional[RollbackAttacker]:
        vault = getattr(node, "snapshot_vault", None)
        if vault is not None:
            snapshot_attacker = RollbackAttacker(store=vault.store)
            snapshot_attacker.serve_oldest("snapshot")
            node._snapshot_attacker = snapshot_attacker
            self.attempts += 1
            self.state["attacker"] = snapshot_attacker
        return attacker


class GarbageStrategy(ByzStrategy):
    """Inject unsigned garbage nobody has a handler for.  Defense:
    unknown message kinds are dropped at dispatch."""

    name = "garbage"

    def on_tick(self, node: Any) -> None:
        n = self.state.get("count", 0) + 1
        self.state["count"] = n
        self.attempts += 1
        payload = ByzGarbage(blob=digest_of("byz-garbage", node.node_id, n)[:16])
        for dst in node.peers:
            node.send_to(dst, payload)


class SilentStrategy(ByzStrategy):
    """Say nothing at all (fail-stop from the outside while the process
    still runs).  Defense: any f such nodes are within the fault budget."""

    name = "silent"

    def on_send(self, node: Any, dst: int, payload: Any) -> Optional[Any]:
        self.attempts += 1
        return None


#: Registry, in **chain order**: specific interceptors run before broad
#: suppressors so composed strategies all get to engage (e.g. hide-decide
#: counts its victims' MCommits before withhold-vote eats the rest;
#: silent last, as it suppresses everything).
STRATEGIES: dict[str, Type[ByzStrategy]] = {
    cls.name: cls
    for cls in (
        ReplayRecoveryStrategy,
        LieRecoveryStrategy,
        SkipCounterStrategy,
        EquivocateStrategy,
        HideDecideStrategy,
        WithholdVoteStrategy,
        StaleSealStrategy,
        StaleSnapshotStrategy,
        GarbageStrategy,
        SilentStrategy,
    )
}


def resolve_strategies(names: "tuple[str, ...] | list[str]") -> list[str]:
    """Validate strategy names and return them in canonical chain order."""
    unknown = [n for n in names if n not in STRATEGIES]
    if unknown:
        raise ValueError(
            f"unknown Byzantine strategies {unknown}; "
            f"known: {', '.join(STRATEGIES)}"
        )
    return [n for n in STRATEGIES if n in set(names)]


def applicable_strategies(node_cls: type,
                          names: "tuple[str, ...] | list[str]",
                          ) -> tuple[list[str], list[str]]:
    """Split ``names`` into (applicable, skipped) for ``node_cls``."""
    ordered = resolve_strategies(names)
    applicable = [n for n in ordered if STRATEGIES[n].applies_to(node_cls)]
    skipped = [n for n in ordered if n not in applicable]
    return applicable, skipped


class ByzController:
    """Per-node strategy chain: owns the strategy instances, their
    attempt/denial counters, and the deterministic tick."""

    def __init__(self, node: Any, names: list[str]) -> None:
        self.node = node
        self.strategies = [STRATEGIES[n]() for n in resolve_strategies(names)]
        self.in_hook = False  # strategy-originated sends bypass the chain
        self._tick_timer = node.timer("byz-tick")

    # -- lifecycle -----------------------------------------------------
    def on_start(self) -> None:
        self.in_hook = True
        try:
            for s in self.strategies:
                s.on_start(self.node)
        finally:
            self.in_hook = False
        self.arm_tick()

    def arm_tick(self) -> None:
        self._tick_timer.start(TICK_MS, self._tick)

    def _tick(self) -> None:
        node = self.node
        if node.alive:
            def run() -> None:
                self.in_hook = True
                try:
                    for s in self.strategies:
                        s.on_tick(node)
                finally:
                    self.in_hook = False
            node.run_work(run)
            self.arm_tick()

    # -- hook dispatch -------------------------------------------------
    def filter_send(self, dst: int, payload: Any) -> Optional[Any]:
        self.in_hook = True
        try:
            for s in self.strategies:
                payload = s.on_send(self.node, dst, payload)
                if payload is None:
                    return None
        finally:
            self.in_hook = False
        return payload

    def intercept_deliver(self, payload: Any, src: int) -> bool:
        self.in_hook = True
        try:
            for s in self.strategies:
                if s.on_deliver(self.node, payload, src):
                    return True
        finally:
            self.in_hook = False
        return False

    def on_propose(self, args: tuple) -> None:
        self.in_hook = True
        try:
            for s in self.strategies:
                s.on_propose(self.node, args)
        finally:
            self.in_hook = False

    def pre_reboot(self, attacker: Optional[RollbackAttacker]
                   ) -> Optional[RollbackAttacker]:
        self.in_hook = True
        try:
            for s in self.strategies:
                attacker = s.pre_reboot(self.node, attacker)
        finally:
            self.in_hook = False
        return attacker

    def post_reboot(self) -> None:
        self.in_hook = True
        try:
            for s in self.strategies:
                s.post_reboot(self.node)
        finally:
            self.in_hook = False
        self.arm_tick()

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, int]]:
        """Per-strategy attempt/denial counters."""
        return {
            s.name: {"attempts": s.attempts, "denials": s.denials}
            for s in self.strategies
        }


def make_byzantine(node_cls: type,
                   strategies: "tuple[str, ...] | list[str]") -> type:
    """Subclass ``node_cls`` with the given strategy chain woven into its
    untrusted-code surface (send, deliver, start, reboot).

    Works for every protocol in the registry: the hooks live in
    :class:`~repro.consensus.base.ReplicaBase` and the strategies target
    the generic ``BYZ_*_KINDS`` / TEE-attribute surface.  The enclave is
    never modified — strategies may only *call* its ECALLs, exactly like
    a compromised host.
    """
    names = resolve_strategies(strategies)

    class Byzantine(node_cls):  # type: ignore[misc, valid-type]
        byz_strategy_names = tuple(names)

        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self.byz = ByzController(self, names)

        def start(self) -> None:
            super().start()
            self.byz.on_start()

        def send_to(self, dst: int, payload: Any) -> None:
            if self.byz.in_hook:
                super().send_to(dst, payload)
                return
            filtered = self.byz.filter_send(dst, payload)
            if filtered is None:
                return
            super().send_to(dst, filtered)

        if hasattr(node_cls, "_propose"):
            def _propose(self, *args: Any, **kwargs: Any) -> None:
                node_cls._propose(self, *args, **kwargs)
                if not self.byz.in_hook:
                    self.byz.on_propose(args)

        def _dispatch(self, envelope: Any, arrival: float,
                      epoch: int) -> None:
            if not self.alive or self.epoch != epoch:
                return
            if not self.byz.in_hook:
                consumed: list[bool] = []
                # Inside run_work so sends a strategy queues while
                # intercepting (e.g. a replayed response) are costed and
                # flushed like any other handler work.
                self.run_work(lambda: consumed.append(
                    self.byz.intercept_deliver(envelope.payload, envelope.src)))
                if consumed[0]:
                    return
            super()._dispatch(envelope, arrival, epoch)

        def reboot(self, rollback_attacker: Optional[RollbackAttacker] = None
                   ) -> None:
            super().reboot(self.byz.pre_reboot(rollback_attacker))
            self.byz.post_reboot()

    Byzantine.__name__ = f"Byz{node_cls.__name__}"
    Byzantine.__qualname__ = Byzantine.__name__
    return Byzantine


def collect_byz_counters(cluster: Any) -> dict[str, dict[str, int]]:
    """Aggregate per-strategy counters across a cluster's Byzantine
    nodes (attempts/denials summed)."""
    totals: dict[str, dict[str, int]] = {}
    for node in cluster.nodes:
        controller = getattr(node, "byz", None)
        if controller is None:
            continue
        for name, counts in controller.snapshot().items():
            slot = totals.setdefault(name, {"attempts": 0, "denials": 0})
            slot["attempts"] += counts["attempts"]
            slot["denials"] += counts["denials"]
    return totals


__all__ = [
    "ByzController",
    "ByzGarbage",
    "ByzStrategy",
    "EquivocateStrategy",
    "GarbageStrategy",
    "HideDecideStrategy",
    "LieRecoveryStrategy",
    "REPLAY_CAPTURE_KEY",
    "ReplayRecoveryStrategy",
    "STRATEGIES",
    "SilentStrategy",
    "SkipCounterStrategy",
    "StaleSealStrategy",
    "StaleSnapshotStrategy",
    "TICK_MS",
    "WithholdVoteStrategy",
    "applicable_strategies",
    "collect_byz_counters",
    "make_byzantine",
    "resolve_strategies",
]
