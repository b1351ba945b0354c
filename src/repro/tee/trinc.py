"""TrInc-style trusted monotonic counter with attestation (USIG).

The paper's related work (Sec. 7.1) traces TEE-assisted BFT back to small
trusted hardware: Chun et al.'s attested append-only memory, simplified by
Levin et al. (TrInc) to a trusted counter that *binds each counter value
to a message* — the Unique Sequential Identifier Generator (USIG) of
MinBFT.  A USIG certificate proves that its message is the one-and-only
holder of counter value c for that node, which rules out equivocation:
two different messages can never share (node, c).

This substrate backs the :mod:`repro.baselines.minbft` protocol and is a
reusable component in its own right.  Like the paper's counters it can be
wrapped with a persistent counter for rollback prevention (MinBFT-R);
without one, its in-memory counter is exactly the rollback-vulnerable
"virtual counter" the paper warns about (Sec. 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.tee.rprotect import RStateMixin
from repro.crypto.keys import Keyring, PrivateKey
from repro.crypto.signatures import CryptoProfile, Signature, SignedStatement
from repro.errors import EnclaveAbort
from repro.net.message import HASH_BYTES, SIGNATURE_BYTES
from repro.tee.counters import PersistentCounter
from repro.tee.enclave import Enclave, EnclaveProfile, ecall
from repro.tee.sealing import UntrustedStore


@dataclass(frozen=True)
class UsigCertificate(SignedStatement):
    """``⟨UI, node, counter, message-digest⟩_σ`` — a unique identifier."""

    node: int
    counter: int
    message_digest: str
    signature: Signature

    def statement(self) -> tuple:
        """The signed tuple."""
        return ("UI", self.node, self.counter, self.message_digest)

    def validate(self, keyring: Keyring) -> bool:
        """Check the signature and claimed signer."""
        return self.signature.signer == self.node and super().validate(keyring)

    def wire_size(self) -> int:
        """Serialized size."""
        return 2 + 4 + 8 + HASH_BYTES + SIGNATURE_BYTES


class Usig(RStateMixin, Enclave):
    """The USIG trusted component.

    ``create_ui`` assigns the next counter value to a message digest;
    ``verify_ui`` checks a peer's certificate and enforces the *gapless*
    rule — node ``p``'s identifiers must be consumed in order, with no
    counter value skipped, so a Byzantine node cannot hide messages.
    """

    def __init__(
        self,
        node_id: int,
        private_key: PrivateKey,
        keyring: Keyring,
        profile: Optional[EnclaveProfile] = None,
        crypto: Optional[CryptoProfile] = None,
        store: Optional[UntrustedStore] = None,
        counter: Optional[PersistentCounter] = None,
    ) -> None:
        super().__init__(identity=f"usig/{node_id}", profile=profile,
                         crypto=crypto, store=store)
        self.node_id = node_id
        self._sk = private_key
        self._keyring = keyring
        self.counter_value = 0
        # Highest verified counter per peer (for the gapless check).
        self.last_seen: dict[int, int] = {}
        self.attach_counter(counter)

    def wipe_volatile_state(self) -> None:
        """Reboot: the virtual counter is lost — the rollback hazard.  A
        host that never calls ``tee_restore`` gets a USIG that starts over
        at 1."""
        self.counter_value = 0
        self.last_seen = {}
        self.recovering = True

    @ecall
    def create_ui(self, message_digest: str) -> UsigCertificate:
        """Assign the next unique identifier to ``message_digest``."""
        self.counter_value += 1
        self.protect_state_update()
        self.charge_sign(1)
        return UsigCertificate.issue(
            self._sk, node=self.node_id, counter=self.counter_value,
            message_digest=message_digest)

    @ecall
    def verify_ui(self, ui: UsigCertificate, message_digest: str,
                  allow_gaps: bool = False) -> bool:
        """Validate a peer's identifier and enforce ordered consumption.

        The default is MinBFT's strict *gapless* rule (node p's counter
        values must be consumed exactly in sequence).  ``allow_gaps=True``
        relaxes it to strict monotonicity — replays and reuse are still
        impossible, but skipped values are tolerated; callers that don't
        need omission detection (or that drop late duplicates of already
        decided messages) use this mode instead of buffering.
        """
        self.charge_verify(1)
        if ui.message_digest != message_digest:
            raise EnclaveAbort("UI bound to a different message")
        if not ui.validate(self._keyring):
            raise EnclaveAbort("invalid UI signature")
        last = self.last_seen.get(ui.node, 0)
        if ui.counter <= last:
            raise EnclaveAbort(
                f"UI replay for node {ui.node}: got {ui.counter}, "
                f"already consumed up to {last}"
            )
        if not allow_gaps and ui.counter != last + 1:
            raise EnclaveAbort(
                f"UI gap for node {ui.node}: got {ui.counter}, expected {last + 1}"
            )
        self.last_seen[ui.node] = ui.counter
        return True

    # -- what a reboot seals and restores (RStateMixin.tee_restore) -------
    def _sealed_payload(self) -> tuple:
        return (self.counter_value, dict(self.last_seen))

    def _load_sealed(self, payload: tuple) -> None:
        self.counter_value, last_seen = payload
        self.last_seen = dict(last_seen)


__all__ = ["Usig", "UsigCertificate"]
