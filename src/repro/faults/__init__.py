"""Fault injection.

* :mod:`repro.faults.scenarios` — the :class:`Crash` event and the one
  function that installs crashes, reboots and rollback attacks; the
  :class:`FaultPlan` chaos and soak campaigns inject and the one
  f-bounded function that installs it; and the phase-scheduled soak
  scenarios (:mod:`repro.harness.soak`).
* :mod:`repro.faults.byz` — the composable Byzantine strategy engine:
  small stackable behaviors (equivocation, vote withholding, decide
  hiding, recovery lying/replay, counter skipping, stale-seal feeding,
  garbage injection, silence) woven into *any* protocol's node class by
  ``make_byzantine(node_cls, strategies)`` — always through the
  untrusted-code surface, never the enclave.
* :mod:`repro.faults.chaos` — seeded chaos campaigns composing crashes,
  rollback attacks, partitions, delays, client churn, lossy fabrics, and
  Byzantine replicas, run under the always-on invariant monitors.
* :mod:`repro.faults.powercut` — exhaustive mid-write power-cut
  exploration over the durability journal.

Import the submodule you need: this package re-exports nothing, so that
loading one fault family does not load the others.
"""
