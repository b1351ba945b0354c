"""Deterministic open-loop arrival engines.

:class:`ArrivalEngine` is the shared core: given a
:class:`~repro.workload.spec.WorkloadSpec` and a forked RNG it produces
the (gap, client, key-rank) stream.  Draw order per arrival is fixed —
**gap, then client, then key** — so the sequence for a given
``(spec, seed)`` is byte-identical across runs, platforms, and consumers
(the determinism tests pin this).

Rate modulation (diurnal curve, flash crowds, churn) is evaluated
analytically at each arrival instant rather than via scheduled rate
changes: the engine is a pure function of time, so there is nothing to
tear down or replay.  Gaps are drawn from the *instantaneous* rate — the
standard stepwise approximation for non-homogeneous processes; at the
millisecond gaps we run, the error at a rate step is one inter-arrival
time.

The engine's ``next_gap_ms`` / ``next_client`` / ``next_key_rank`` are
the per-arrival definition (and the oracle the property tests run the
stream against); :class:`TrafficGenerator` makes the same draws from the
spec compiled into segments once (:meth:`WorkloadSpec.segments`), so an
arrival asks the spec nothing.  It decodes them, in the same order, from
the stream's 32-bit words (:func:`~repro.sim.loop.word_block`), the third
block reader beside the normal and exponential ones: the client's
``randrange`` from one word (another while it is out of range), the
rank's ``random()`` from two, and the gap's ``expovariate`` from two or
``lognormvariate`` from four per Kinderman-Monahan try.  So a population
is below 2**32 (:class:`WorkloadSpec` refuses more), and a draw makes no
call.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import repeat
from random import NV_MAGICCONST
from typing import Optional

from repro.client.workload import ArrivalStream, QueueSource, caught_up
from repro.sim.loop import TWO_53, Simulator, word_block
from repro.workload.spec import WorkloadSpec

#: Re-probe delay when the instantaneous rate is ~0 (population outage,
#: deep diurnal trough): the engine polls rather than dividing by zero.
_IDLE_PROBE_MS = 50.0

#: Floor on instantaneous rate before the engine falls back to probing.
_MIN_RATE_TPS = 1e-9


class ArrivalEngine:
    """The seeded (gap, client, key) stream for one workload spec.

    Stateless apart from the RNG and engagement counters: rate and
    population are pure functions of the spec and the query time.
    """

    def __init__(self, spec: WorkloadSpec, rng) -> None:
        self.spec = spec
        self.rng = rng
        # Zipf(s) over key_space ranks via inverse-CDF + bisect: the CDF
        # is precomputed once (O(key_space)), each draw is O(log K).
        self._zipf_cdf: list[float] = []
        if spec.key_space > 0:
            s = spec.zipf_s
            weights = [1.0 / (rank + 1) ** s for rank in range(spec.key_space)]
            total = sum(weights)
            acc = 0.0
            for w in weights:
                acc += w
                self._zipf_cdf.append(acc / total)
        # mu such that the lognormal mean equals the target mean gap:
        # E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
        self._lognormal_shift = spec.lognormal_sigma ** 2 / 2.0
        # Engagement bookkeeping (anti-vacuity counters for the soak gate).
        self.flash_arrivals = 0
        self.churn_transitions = 0
        self._last_population = spec.clients

    def next_gap_ms(self, now_ms: float) -> float:
        """Draw the gap to the next arrival, or an idle probe delay.

        Returns ``(gap_ms, is_arrival)``-style behavior via sentinel: a
        negative return means "no arrival, re-probe after |value|".
        """
        rate = self.spec.rate_at(now_ms)
        if rate <= _MIN_RATE_TPS:
            return -_IDLE_PROBE_MS
        mean_gap_ms = 1000.0 / rate
        if self.spec.arrival == "poisson":
            return self.rng.expovariate(1.0 / mean_gap_ms)
        # lognormal: heavy right tail, mean preserved.
        mu = math.log(mean_gap_ms) - self._lognormal_shift
        return self.rng.lognormvariate(mu, self.spec.lognormal_sigma)

    def next_client(self, now_ms: float) -> int:
        """Draw the submitting client id from the live population."""
        population = self.spec.population_at(now_ms)
        if population != self._last_population:
            self.churn_transitions += 1
            self._last_population = population
        return self.rng.randrange(population)

    def next_key_rank(self, now_ms: float) -> int:
        """Draw a Zipf key rank (0 = hottest); -1 when key_space is 0.

        Also counts flash-crowd arrivals (an arrival drawn while any
        flash window is active) for the engagement gate.
        """
        for crowd in self.spec.flash_crowds:
            if crowd.active_at(now_ms):
                self.flash_arrivals += 1
                break
        return self.draw_rank()

    def draw_rank(self) -> int:
        """One raw Zipf rank draw (no flash bookkeeping); -1 if no keys."""
        if not self._zipf_cdf:
            return -1
        return bisect_left(self._zipf_cdf, self.rng.random())


class TrafficGenerator(ArrivalStream):
    """Open-loop production-shaped traffic into a single-cluster mempool.

    One arrival = one step of the pulled stream: draw (client, key), put
    the transaction's row on the client hop towards ``source`` (bounded
    queues drop at landing and account for it), draw the next gap.  Where
    the rate is ~0 the step is an idle probe: no draw, look again later.
    ``record`` (tests only) captures ``(time_ms, client_id, key_rank)``
    triples so determinism tests can compare full sequences.
    """

    def __init__(self, sim: Simulator, source: QueueSource,
                 spec: WorkloadSpec, rng_tag: str = "workload",
                 record: Optional[list] = None) -> None:
        super().__init__(sim, source, spec.client_one_way_ms,
                         spec.payload_size)
        self.spec = spec
        self._engine = ArrivalEngine(spec, sim.fork_rng(rng_tag))
        self._record = record
        self._seq = 0
        self._probing = False
        # The spec's segments, then an end marker no instant reaches.
        self._segments = spec.segments() + ((math.inf, 0.0, (), 0),)
        self._segment = 0
        # The stream's words (word_block); ``_words[_pos]`` is next.
        self._words: "tuple[int, ...]" = ()
        self._pos = 0

    engine = caught_up("_engine", "The draw engine, its counters current.")
    record = caught_up("_record", "The (time_ms, client, rank) triples so far.")
    emitted = caught_up("_seq", "Arrivals created so far.")
    accepted = caught_up("_accepted", "Arrivals the mempool admitted so far.")

    def _arm(self) -> None:
        # Like an idle probe, the start instant only draws the first gap.
        self._next_at, self._probing = self.sim.now, True

    def _emit_through(self, now: float) -> None:
        # ArrivalEngine's three draws in line, over the compiled segments,
        # each decoded from the stream's 32-bit words (see word_block) into
        # what the stdlib returns: randrange one word, shifted, drawn
        # again while out of range; random() two; a Kinderman-Monahan try
        # of lognormvariate four.  Decoding an arrival only reads words,
        # so an arrival that runs off the block is decoded again from its
        # first word over the block's tail and a fresh block.  Per arrival
        # only one sin, the logs, one exp and the row's append make calls;
        # ranks are bisected, payloads formatted and rows put on the hop
        # once per catch-up.  Float for float the engine's arithmetic:
        # base share, x diurnal, x each boost.
        engine, spec, record = self._engine, self.spec, self._record
        rng, cdf = engine.rng, engine._zipf_cdf
        words, pos = self._words, self._pos
        poisson, shift = spec.arrival == "poisson", engine._lognormal_shift
        sigma = spec.lognormal_sigma
        amplitude, period = spec.diurnal_amplitude, spec.diurnal_period_ms
        two_pi, sin, log, exp = 2.0 * math.pi, math.sin, math.log, math.exp
        rows: list = []
        row = rows.append
        segments, index = self._segments, self._segment
        _, share, boosts, population = segments[index]
        bound = segments[index + 1][0]
        drop = 32 - population.bit_length()
        flashed, turns = engine.flash_arrivals, engine.churn_transitions
        last_population = engine._last_population
        at, probing, seq = self._next_at, self._probing, self._seq
        first, u = seq, 0.0
        while at <= now:
            while at >= bound:
                index += 1
                _, share, boosts, population = segments[index]
                bound = segments[index + 1][0]
                drop = 32 - population.bit_length()
            rate = share
            if amplitude:
                rate *= 1.0 + amplitude * sin(two_pi * at / period)
            for boost in boosts:
                rate *= boost
            mark = pos
            try:
                if not probing:
                    client = words[pos] >> drop
                    pos += 1
                    while client >= population:
                        client = words[pos] >> drop
                        pos += 1
                    if cdf:
                        u = ((words[pos] >> 5) * 67108864.0
                             + (words[pos + 1] >> 6)) / TWO_53
                        pos += 2
                # ~0: probe later with no client/key draw.
                if rate <= _MIN_RATE_TPS:
                    gap = _IDLE_PROBE_MS
                elif poisson:
                    gap = -log(1.0 - ((words[pos] >> 5) * 67108864.0
                                      + (words[pos + 1] >> 6)) / TWO_53
                               ) / (1.0 / (1000.0 / rate))
                    pos += 2
                else:
                    while True:
                        u2 = 1.0 - ((words[pos + 2] >> 5) * 67108864.0
                                    + (words[pos + 3] >> 6)) / TWO_53
                        z = NV_MAGICCONST * (
                            ((words[pos] >> 5) * 67108864.0
                             + (words[pos + 1] >> 6)) / TWO_53 - 0.5) / u2
                        pos += 4
                        if z * z / 4.0 <= -log(u2):
                            break
                    gap = exp(log(1000.0 / rate) - shift + z * sigma)
            except IndexError:
                words, pos = words[mark:] + word_block(rng), 0
                continue
            if not probing:
                if population != last_population:
                    turns += 1
                    last_population = population
                if boosts:
                    flashed += 1
                seq += 1
                row((client, u, at))
            probing = rate <= _MIN_RATE_TPS
            at = at + gap
        if rows:
            clients, uniforms, instants = zip(*rows)
            seqs = range(first + 1, seq + 1)
            if cdf:
                ranks = list(map(bisect_left, repeat(cdf), uniforms))
                payloads = list(map("SET k{} v{}".format, ranks, seqs))
            else:
                ranks, payloads = repeat(-1), ""
            self._flying.push(seq - first, seqs, clients, payloads,
                              self.payload_size, instants)
            if record is not None:
                record.extend(zip(instants, clients, ranks))
        self._words, self._pos = words, pos
        self._next_at, self._probing, self._seq = at, probing, seq
        self._segment = index
        engine.flash_arrivals, engine.churn_transitions = flashed, turns
        engine._last_population = last_population


__all__ = ["ArrivalEngine", "TrafficGenerator"]
