"""Production-shaped open-loop traffic (ROADMAP item 4).

The :mod:`repro.client.workload` sources model *benchmark* traffic: a
saturated mempool or a flat Poisson process.  This package models
*production* traffic — what a deployment actually serves over hours:

* heavy-tailed inter-arrivals (lognormal bursts, not memoryless Poisson),
* diurnal load curves (sinusoidal rate modulation over a configurable
  period, so "hours" of simulated time see a load swing),
* hot-key Zipf skew (a handful of keys take most writes),
* flash crowds (rate multiplied N-fold for a bounded window), and
* mass client churn (the active client population jumps at events).

Clients are *arrival processes*, not objects: a population of hundreds of
thousands of clients is an integer plus a seeded draw per arrival.
Everything is a pure function of ``(spec, seed)`` — the same spec and
seed replay byte-identical arrival, client, and key sequences.

:class:`TrafficGenerator` feeds a single-cluster mempool.
"""

from repro.workload.spec import ChurnEvent, FlashCrowd, WorkloadSpec
from repro.workload.generators import ArrivalEngine, TrafficGenerator

__all__ = [
    "ArrivalEngine",
    "ChurnEvent",
    "FlashCrowd",
    "TrafficGenerator",
    "WorkloadSpec",
]
