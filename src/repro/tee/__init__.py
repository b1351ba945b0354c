"""Simulated Trusted Execution Environment substrate.

What the paper's protocols need from SGX is narrow and is exactly what this
package provides:

* **Integrity**: trusted-component code cannot be altered and its volatile
  state cannot be read or written directly — :class:`repro.tee.enclave.Enclave`
  only exposes registered ECALLs, and the private key object never leaves it.
* **Volatility**: a reboot erases all volatile enclave state
  (:meth:`Enclave.reboot`) — this is why recovery is needed at all.
* **Sealing without freshness**: an enclave can seal state to untrusted
  storage and unseal it later; the storage is controlled by the adversary,
  who may serve *any authentic previous version* (the rollback attack,
  :mod:`repro.tee.rollback`) but cannot forge blobs
  (:mod:`repro.tee.sealing`).
* **Persistent counters**: monotonic counters with the latencies measured
  in the paper's Table 4 (:mod:`repro.tee.counters`), used by the -R
  baseline variants for rollback prevention.
* **Cost**: each ECALL pays an enclave-transition cost and in-enclave
  crypto runs slightly slower (:class:`repro.tee.enclave.EnclaveProfile`).
"""

from repro.tee.sealing import SealedBlob, UntrustedStore, SealingKey
from repro.tee.counters import (
    PersistentCounter,
    TPMCounter,
    SGXCounter,
    NarratorCounter,
    ConfigurableCounter,
    NullCounter,
    counter_from_spec,
)
from repro.tee.enclave import Enclave, EnclaveProfile
from repro.tee.rollback import RollbackAttacker

__all__ = [
    "SealedBlob",
    "UntrustedStore",
    "SealingKey",
    "PersistentCounter",
    "TPMCounter",
    "SGXCounter",
    "NarratorCounter",
    "ConfigurableCounter",
    "NullCounter",
    "counter_from_spec",
    "Enclave",
    "EnclaveProfile",
    "RollbackAttacker",
]
