"""One rule matrix over every CHECKER: what each trusted decision answers.

Each row drives one ECALL of one checker variant into one situation —
the happy path, or one of the rule violations Algorithm 2 (and its OneShot
and Damysus derivatives) must refuse — on a fresh five-node world, and
records three things: the verdict (the issued certificate's fields, or
``EnclaveAbort``), the checker's state after the call, and how many
persistent-counter writes it has paid.  The rendered table is pinned in
``checker_rules.txt`` and compared byte for byte, so a refactor of the
trusted code that moves any decision, any state transition or any counter
write shows up as a one-line diff naming the variant, the situation and
the ECALL.

The oracles here (block certificates, quorum certificates, phase votes)
are built from ``sign`` and the plain constructors on purpose: the table
must not depend on whichever helper the code under test uses to issue
its own certificates.

``REPRO_REGEN_CHECKER_RULES=1`` rewrites the pin.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import fields, is_dataclass

import pytest

from repro.baselines.common import PREP, PhaseQC
from repro.baselines.damysus.checker import DamysusChecker
from repro.baselines.oneshot import OneShotChecker
from repro.chain.block import create_leaf, genesis_block
from repro.core.accumulator import AchillesAccumulator
from repro.core.certificates import BlockCertificate, CommitmentCertificate
from repro.core.checker import AchillesChecker
from repro.core.reconfig import ReconfigurableChecker
from repro.crypto.keys import Keyring, generate_keypairs
from repro.crypto.signatures import SignatureList, sign
from repro.errors import EnclaveAbort
from repro.tee.counters import ConfigurableCounter

N, F = 5, 2
PIN = pathlib.Path(__file__).with_name("checker_rules.txt")


# ----------------------------------------------------------------------
# Variants: which ECALL plays which role on which checker
# ----------------------------------------------------------------------
class Variant:
    def __init__(self, factory, counter, view, prepare_acc, prepare_qc,
                 votes, restores):
        self.factory = factory
        self.counter = counter
        self.view = view                # the timeout-path ECALL
        self.prepare_acc = prepare_acc  # proposal justified by an accumulator
        self.prepare_qc = prepare_qc    # proposal justified by a commitment
        self.votes = votes              # what a backup calls on a block cert
        self.restores = restores        # has a sealed-state tee_restore


def _reconfigurable(**kwargs):
    return ReconfigurableChecker(members=range(N), **kwargs)


_ACHILLES = dict(counter=False, view="tee_view", prepare_acc="tee_prepare",
                 prepare_qc="tee_prepare", votes=("tee_store",),
                 restores=False)
_ONESHOT = dict(view="tee_view_os", prepare_acc="tee_prepare_slow",
                prepare_qc="tee_prepare_fast",
                votes=("tee_store_fast", "tee_pre_vote", "tee_store_slow"),
                restores=True)
_DAMYSUS = dict(view="tee_new_view", prepare_acc="tee_prepare",
                prepare_qc=None,
                votes=("tee_vote_prepare", "tee_record_prepared"),
                restores=True)

VARIANTS = {
    "achilles": Variant(AchillesChecker, **_ACHILLES),
    "reconfig": Variant(_reconfigurable, **_ACHILLES),
    "oneshot": Variant(OneShotChecker, counter=False, **_ONESHOT),
    "oneshot-r": Variant(OneShotChecker, counter=True, **_ONESHOT),
    "damysus": Variant(DamysusChecker, counter=False, **_DAMYSUS),
    "damysus-r": Variant(DamysusChecker, counter=True, **_DAMYSUS),
}


# ----------------------------------------------------------------------
# A fresh world per row
# ----------------------------------------------------------------------
class World:
    def __init__(self, variant: Variant) -> None:
        self.variant = variant
        self.pairs = generate_keypairs(range(N), seed=24)
        self.ring = Keyring.from_keypairs(self.pairs)
        self.checkers = {}
        for i in range(N):
            kwargs = dict(node_id=i, n=N, f=F, keyring=self.ring,
                          private_key=self.pairs[i].private)
            if variant.counter:
                kwargs["counter"] = ConfigurableCounter(20.0)
            self.checkers[i] = variant.factory(**kwargs)
        self.genesis = genesis_block()
        self.b1 = self.block(self.genesis, 1, 1)
        self.b2 = self.block(self.b1, 2, 2)

    # -- oracles ---------------------------------------------------------
    def block(self, parent, view, proposer, op="op"):
        return create_leaf((), op, parent, view=view, proposer=proposer)

    def block_cert(self, signer, block, view, signed_hash=None):
        signed = block.hash if signed_hash is None else signed_hash
        return BlockCertificate(
            block_hash=block.hash, view=view,
            signature=sign(self.pairs[signer].private, "PROP", signed, view))

    def commit_qc(self, block, view, signers=(0, 1, 2)):
        return CommitmentCertificate(
            block_hash=block.hash, view=view,
            signatures=SignatureList.of(
                sign(self.pairs[i].private, "COMMIT", block.hash, view)
                for i in signers))

    def prep_qc(self, block, view, signers=(0, 1, 3), signed_hash=None):
        signed = block.hash if signed_hash is None else signed_hash
        return PhaseQC(
            phase=PREP, block_hash=block.hash, view=view,
            signatures=SignatureList.of(
                sign(self.pairs[i].private, PREP, signed, view)
                for i in signers))

    # -- driving the checkers --------------------------------------------
    def enter_view(self, times=1, only=None):
        """Everyone (or ``only``) takes the timeout path ``times`` times;
        returns the last round's view certificates, by node."""
        certs = {}
        for _ in range(times):
            for i, checker in self.checkers.items():
                if only is None or i in only:
                    certs[i] = getattr(checker, self.variant.view)()
        return certs

    def accumulate(self, signer, certs):
        chosen = [certs[i] for i in sorted(certs)][: F + 1]
        accumulator = AchillesAccumulator(
            node_id=signer, f=F, keyring=self.ring,
            private_key=self.pairs[signer].private)
        return accumulator.tee_accum(
            max(chosen, key=lambda c: c.block_view), chosen)

    def vote_args(self, ecall, cert, block):
        """Arguments of the backup-side ECALL ``ecall`` for ``cert``."""
        if ecall == "tee_store_slow":
            return (cert, self.prep_qc(block, cert.view))
        if ecall == "tee_record_prepared":
            return (self.prep_qc(block, cert.view),)
        return (cert,)


def _reboot(checker) -> None:
    checker.reboot()
    checker.restart(N - 1)


# ----------------------------------------------------------------------
# Situations.  Each returns (subject checker, ECALL name, arguments); the
# harness makes the call and records what happened.
# ----------------------------------------------------------------------
def s_ok(w: World, ecall: str, role: str):
    if role == "view":
        return w.checkers[2], ecall, ()
    certs = w.enter_view()
    if role == "prepare_acc":
        return w.checkers[1], ecall, (w.b1, w.accumulate(1, certs))
    if role == "prepare_qc":
        return w.checkers[2], ecall, (w.b2, w.commit_qc(w.b1, 1))
    cert = w.block_cert(1, w.b1, 1)
    if ecall == "tee_store_slow":
        w.checkers[3].tee_pre_vote(cert)
    return w.checkers[3], ecall, w.vote_args(ecall, cert, w.b1)


def s_bad_signature(w: World, ecall: str, role: str):
    """The block certificate (for Damysus' second round: one member of
    the prepared QC) carries a signature over another statement."""
    w.enter_view()
    if ecall == "tee_record_prepared":
        return w.checkers[3], ecall, (w.prep_qc(w.b1, 1, signed_hash="x"),)
    cert = w.block_cert(1, w.b1, 1, signed_hash="x")
    return w.checkers[3], ecall, w.vote_args(ecall, cert, w.b1)


def s_wrong_leader(w: World, ecall: str, role: str):
    """A validly signed block certificate — from node 2, for view 1."""
    w.enter_view()
    cert = w.block_cert(2, w.b1, 1)
    return w.checkers[3], ecall, w.vote_args(ecall, cert, w.b1)


def s_stale_view(w: World, ecall: str, role: str):
    """The checker is in view 3; the certificate is view 1's."""
    w.enter_view(times=3, only=(3,))
    cert = w.block_cert(1, w.b1, 1)
    return w.checkers[3], ecall, w.vote_args(ecall, cert, w.b1)


def s_second_vote(w: World, ecall: str, role: str):
    """A second, different block from view 1's leader."""
    w.enter_view()
    subject = w.checkers[3]
    first = w.block_cert(1, w.b1, 1)
    if ecall == "tee_store_slow":
        subject.tee_pre_vote(first)
    getattr(subject, ecall)(*w.vote_args(ecall, first, w.b1))
    other = w.block(w.genesis, 1, 1, op="other")
    second = w.block_cert(1, other, 1)
    return subject, ecall, w.vote_args(ecall, second, other)


def s_second_proposal(w: World, ecall: str, role: str):
    certs = w.enter_view()
    if role == "prepare_acc":
        subject, parent, view = w.checkers[1], w.genesis, 1
        justification = w.accumulate(1, certs)
        first = w.b1
    else:
        subject, parent, view = w.checkers[2], w.b1, 2
        justification = w.commit_qc(w.b1, 1)
        first = w.b2
    getattr(subject, ecall)(first, justification)
    other = w.block(parent, view, subject.node_id, op="other")
    return subject, ecall, (other, justification)


def s_wrong_parent(w: World, ecall: str, role: str):
    """The block extends a sibling of the justified block."""
    certs = w.enter_view()
    if role == "prepare_acc":
        sibling = w.block(w.genesis, 1, 0, op="sibling")
        block = w.block(sibling, 1, 1)
        return w.checkers[1], ecall, (block, w.accumulate(1, certs))
    sibling = w.block(w.genesis, 1, 1, op="sibling")
    block = w.block(sibling, 2, 2)
    return w.checkers[2], ecall, (block, w.commit_qc(w.b1, 1))


def s_foreign_accumulator(w: World, ecall: str, role: str):
    """View 1's leader presents an accumulator node 3's TEE signed."""
    certs = w.enter_view()
    return w.checkers[1], ecall, (w.b1, w.accumulate(3, certs))


def s_accumulator_other_view(w: World, ecall: str, role: str):
    """Node 2's accumulator is for view 1; its checker is in view 2."""
    acc = w.accumulate(2, w.enter_view())
    w.enter_view()
    block = w.block(w.genesis, 2, 2)
    return w.checkers[2], ecall, (block, acc)


def s_non_leader(w: World, ecall: str, role: str):
    certs = w.enter_view()
    if role == "prepare_acc":
        block = w.block(w.genesis, 1, 3)
        return w.checkers[3], ecall, (block, w.accumulate(3, certs))
    block = w.block(w.b1, 2, 3)
    return w.checkers[3], ecall, (block, w.commit_qc(w.b1, 1))


def s_before_restore(w: World, ecall: str, role: str):
    """Rebooted, not yet restored (Achilles: not yet recovered)."""
    subject, ecall, args = s_ok(w, ecall, role)
    _reboot(subject)
    return subject, ecall, args


#: situation -> (function, roles it applies to)
SITUATIONS = {
    "ok": (s_ok, ("view", "prepare_acc", "prepare_qc", "vote")),
    "bad-signature": (s_bad_signature, ("vote",)),
    "wrong-leader": (s_wrong_leader, ("vote",)),
    "stale-view": (s_stale_view, ("vote",)),
    "second-vote": (s_second_vote, ("vote",)),
    "second-proposal": (s_second_proposal, ("prepare_acc", "prepare_qc")),
    "wrong-parent": (s_wrong_parent, ("prepare_acc", "prepare_qc")),
    "foreign-accumulator": (s_foreign_accumulator, ("prepare_acc",)),
    "accumulator-other-view": (s_accumulator_other_view, ("prepare_acc",)),
    "non-leader": (s_non_leader, ("prepare_acc", "prepare_qc")),
    "before-restore": (s_before_restore,
                       ("view", "prepare_acc", "prepare_qc", "vote")),
}


# ----------------------------------------------------------------------
# Sealed-state restore (the checkers that have one)
# ----------------------------------------------------------------------
def r_fresh(w: World):
    subject = w.checkers[2]
    w.enter_view(times=2, only=(2,))
    sealed = subject.unseal_state("rstate")
    _reboot(subject)
    return subject, "tee_restore", (sealed,)


def r_stale(w: World):
    subject = w.checkers[2]
    w.enter_view(times=2, only=(2,))
    sealed = subject.unseal_state("rstate", version_index=0)
    _reboot(subject)
    return subject, "tee_restore", (sealed,)


def r_crash_window(w: World):
    """Sealed version == counter + 1: the store landed, the increment did
    not (a power cut between the two)."""
    subject = w.checkers[2]
    w.enter_view(times=2, only=(2,))
    version, payload = subject.unseal_state("rstate")
    _reboot(subject)
    return subject, "tee_restore", ((version + 1, payload),)


def r_reset(w: World):
    """The host claims nothing was ever sealed — after two updates."""
    subject = w.checkers[2]
    w.enter_view(times=2, only=(2,))
    _reboot(subject)
    return subject, "tee_restore", (None,)


def r_never_sealed(w: World):
    subject = w.checkers[2]
    _reboot(subject)
    return subject, "tee_restore", (None,)


def r_live(w: World):
    """A checker that never rebooted is handed a sealed state."""
    subject = w.checkers[2]
    w.enter_view(times=2, only=(2,))
    return subject, "tee_restore", (subject.unseal_state("rstate"),)


RESTORES = {
    "restore-fresh": r_fresh,
    "restore-stale": r_stale,
    "restore-crash-window": r_crash_window,
    "restore-reset": r_reset,
    "restore-never-sealed": r_never_sealed,
    "restore-live": r_live,
}


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _short(value):
    if isinstance(value, str) and len(value) == 64:
        return value[:8]
    return value


def _render(result) -> str:
    if isinstance(result, tuple):
        return " + ".join(_render(part) for part in result)
    if not is_dataclass(result):
        return repr(result)
    shown = [f"{f.name}={_short(getattr(result, f.name))!r}"
             for f in fields(result) if f.name != "signature"]
    shown.append(f"signer={result.signature.signer}")
    return f"{type(result).__name__}({', '.join(shown)})"


def _state(checker) -> str:
    state = {k: _short(v) for k, v in vars(checker.state).items()}
    if hasattr(checker, "_pre_voted_view"):
        state["pre_voted"] = checker._pre_voted_view
    gated = getattr(checker, "recovering", False) \
        or getattr(checker, "needs_restore", False)
    shown = " ".join(f"{k}={v}" for k, v in state.items())
    return (f"{shown} gated={gated} "
            f"version={getattr(checker, '_state_version', '-')} "
            f"writes={getattr(checker, 'counter_writes', '-')}")


def _rows():
    for name, variant in VARIANTS.items():
        roles = [("view", variant.view), ("prepare_acc", variant.prepare_acc),
                 ("prepare_qc", variant.prepare_qc)]
        roles += [("vote", ecall) for ecall in variant.votes]
        for situation, (build, applies) in SITUATIONS.items():
            for role, ecall in roles:
                if ecall is None or role not in applies:
                    continue
                if situation == "wrong-leader" and \
                        ecall == "tee_record_prepared":
                    continue  # a prepared QC names no leader
                label = f"{situation} {ecall}" + \
                    (f"[{role[8:]}]" if role.startswith("prepare") else "")
                yield name, label, (lambda v=variant, b=build, e=ecall,
                                    r=role: b(World(v), e, r))
        if variant.restores:
            for situation, build in RESTORES.items():
                yield name, f"{situation} tee_restore", \
                    (lambda v=variant, b=build: b(World(v)))


def render_table() -> str:
    lines = []
    for name, label, build in _rows():
        subject, ecall, args = build()
        try:
            verdict = _render(getattr(subject, ecall)(*args))
        except EnclaveAbort:
            verdict = "EnclaveAbort"
        lines.append(f"{name:<10} {label:<46} -> {verdict}")
        lines.append(f"{'':<10} {'':<46}    {_state(subject)}")
    return "\n".join(lines) + "\n"


def test_rule_table_is_pinned():
    table = render_table()
    if os.environ.get("REPRO_REGEN_CHECKER_RULES"):
        PIN.write_text(table, encoding="utf-8")
    assert table == PIN.read_text(encoding="utf-8")


def test_violations_abort_and_happy_paths_issue():
    """The table is only a fence if its rows are what they say: every
    violation ends in an abort, every happy path in a certificate."""
    for _name, label, build in _rows():
        situation = label.split()[0]
        if situation.startswith("restore"):
            continue
        subject, ecall, args = build()
        if situation == "ok":
            getattr(subject, ecall)(*args)
        else:
            with pytest.raises(EnclaveAbort):
                getattr(subject, ecall)(*args)
