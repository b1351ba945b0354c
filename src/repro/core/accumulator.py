"""The ACCUMULATOR trusted component (paper Sec. 4.3).

Stateless apart from key material: given f+1 view certificates for the same
target view, it asserts which of them carries the highest-view stored block
and signs an accumulator certificate naming that block as the mandatory
parent for the leader's next proposal.  Only the leader of a view invokes
its accumulator.

Being stateless, nothing here needs recovery: a rebooted accumulator is
fully functional as soon as the enclave restarts with its (sealed, static)
keys.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.crypto.keys import Keyring, PrivateKey
from repro.crypto.signatures import CryptoProfile
from repro.errors import EnclaveAbort
from repro.core.certificates import AccumulatorCertificate, ViewCertificate
from repro.tee.enclave import Enclave, EnclaveProfile, ecall
from repro.tee.sealing import UntrustedStore


class AchillesAccumulator(Enclave):
    """Achilles' ACCUMULATOR component."""

    def __init__(
        self,
        node_id: int,
        f: int,
        private_key: PrivateKey,
        keyring: Keyring,
        profile: Optional[EnclaveProfile] = None,
        crypto: Optional[CryptoProfile] = None,
        store: Optional[UntrustedStore] = None,
    ) -> None:
        super().__init__(
            identity=f"accumulator/{node_id}", profile=profile, crypto=crypto, store=store
        )
        self.node_id = node_id
        self.f = f
        self._sk = private_key
        self._keyring = keyring

    @ecall
    def tee_accum(
        self,
        best: ViewCertificate,
        certificates: Sequence[ViewCertificate],
    ) -> AccumulatorCertificate:
        """``TEEaccum(φ_v, φ⃗_n)`` (Algorithm 2, lines 22–25).

        Validates that ``certificates`` are f+1 view certificates from
        distinct nodes, all for the same target view, that ``best`` is one
        of them, and that ``best`` names the highest-view stored block.
        Returns the signed accumulator certificate the checker will demand
        in TEEprepare.
        """
        if not certificates:
            raise EnclaveAbort("no view certificates supplied")
        self.charge_verify(len(certificates))

        target_view = best.current_view
        valid: list[ViewCertificate] = []
        for cert in certificates:
            if cert.current_view != target_view:
                raise EnclaveAbort(
                    "view certificates target different views "
                    f"({cert.current_view} != {target_view})"
                )
            if cert.validate(self._keyring):
                valid.append(cert)

        signers = {c.signer for c in valid}
        if len(signers) < self.f + 1:
            raise EnclaveAbort(
                f"need f+1={self.f + 1} valid view certificates, got {len(signers)}"
            )
        if best not in valid:
            raise EnclaveAbort("best certificate is not among the valid ones")
        highest = max(c.block_view for c in valid)
        if best.block_view < highest:
            raise EnclaveAbort(
                f"best certificate (view {best.block_view}) is not the highest ({highest})"
            )

        ids = tuple(sorted(signers))
        self.charge_sign(1)
        return AccumulatorCertificate.issue(
            self._sk, block_hash=best.block_hash, block_view=best.block_view,
            target_view=target_view, ids=ids)


__all__ = ["AchillesAccumulator"]
