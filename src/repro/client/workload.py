"""Workload sources.

All sources implement the :class:`~repro.consensus.base.TransactionSource`
protocol (``take`` / ``pending``).  Transactions carry ``created_at``
timestamps used for end-to-end latency; the configured
``client_one_way_ms`` models the client→replica hop the paper counts as
the first communication step.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import partial
from itertools import accumulate, compress, islice, repeat
from math import log
from operator import add, mod, truediv
from typing import Optional

from repro.chain.transaction import (COLUMN_TYPES, EMPTY_BATCH,
                                     Transaction, TxBatch, TxKeySet,
                                     _rows, append_ints)
from repro.sim.loop import (TWO_53, WORD_BOUND, Simulator, exponential_block,
                            word_block)


def make_payload(payload_size: int, tag: int = 0) -> str:
    """An opaque payload string of roughly ``payload_size`` bytes."""
    if payload_size <= 0:
        return ""
    body = f"tx{tag:08d}"
    return (body * (payload_size // len(body) + 1))[:payload_size]


class SaturatedSource:
    """An always-full mempool: every ``take`` is served in full.

    Used for peak-throughput measurements (Fig. 3, Tables 1/3): the paper
    saturates the system, so the leader never waits for transactions.
    ``created_at`` is back-dated by the client's one-way delay so that
    end-to-end latency still includes the client→replica step.  A take
    is one :class:`~repro.chain.transaction.TxBatch` of a few objects,
    whatever its size: its ids a ``range``, its clients (``id % 64``) a
    byte array, and one payload, size and creation time.
    """

    def __init__(self, sim: Simulator, payload_size: int = 256,
                 client_one_way_ms: float = 0.05) -> None:
        self.sim = sim
        self.payload_size = payload_size
        self.client_one_way_ms = client_one_way_ms
        self.minted = 0

    def take(self, count: int, now: float) -> TxBatch:
        """Mint ``count`` fresh transactions dated to their submit time."""
        base = self.minted
        tx_ids = range(base + 1, base + count + 1)
        self.minted = base + count
        return TxBatch(tx_ids, array("B", map(mod, tx_ids, repeat(64))), "",
                       self.payload_size,
                       max(0.0, now - self.client_one_way_ms))

    def pending(self) -> int:
        """A saturated source always has work."""
        return 1 << 30


#: Typed drop reasons for bounded mempool admission (report keys).
DROP_DUPLICATE = "duplicate"
DROP_OVERFLOW = "overflow"


def caught_up(attribute: str, doc: str) -> property:
    """A read-only view of ``attribute`` that calls ``catch_up()`` first."""
    def read(self):
        self.catch_up()
        return getattr(self, attribute)
    return property(read, doc=doc)


def _joined(held, rows: int, added, adding: int) -> list:
    """The column of ``rows`` entries ``held``, then ``adding`` entries
    ``added`` (each one value for all its entries, or one entry per
    row), as a list."""
    if added.__class__ not in COLUMN_TYPES:
        added = (added,) * adding
    if held.__class__ not in COLUMN_TYPES:
        held = [held] * rows
    held += added
    return held


class _Columns:
    """Rows of transactions as columns, oldest first, ``n`` of them behind
    a cursor ``head``: ids and clients in int arrays of the smallest type
    that holds them, creation times in an ``array('d')``, and payloads
    and declared sizes each one value while every row shares it, else a
    list.  A mempool's queue is one, and so is an arrival stream's hop."""

    __slots__ = ("n", "head", "ids", "clients", "payloads", "sizes",
                 "created")

    #: Cursor position past which :meth:`pop` deletes the popped prefix
    #: though rows are left (bounds what a backlog holds).
    COMPACT_AT = 1024

    def __init__(self) -> None:
        self.n = self.head = 0
        self.ids, self.clients = array("B"), array("B")
        self.payloads, self.sizes = "", 0
        self.created = array("d")

    def push(self, count: int, ids, clients, payloads, sizes,
             created) -> None:
        """Append ``count`` rows, given as a :class:`TxBatch`'s columns."""
        rows = self.head + self.n
        self.n += count
        self.ids = append_ints(self.ids, ids)
        self.clients = append_ints(self.clients, clients)
        if not rows:
            self.payloads = [*payloads] \
                if payloads.__class__ in COLUMN_TYPES else payloads
            self.sizes = [*sizes] if sizes.__class__ in COLUMN_TYPES \
                else sizes
        else:
            if payloads.__class__ is not str or payloads != self.payloads:
                self.payloads = _joined(self.payloads, rows, payloads, count)
            if sizes.__class__ is not int or sizes != self.sizes:
                self.sizes = _joined(self.sizes, rows, sizes, count)
        self.created += array("d", created) \
            if created.__class__ in COLUMN_TYPES else \
            array("d", (created,)) * count

    def pop(self, count: int) -> tuple:
        """Remove the oldest ``count`` rows; their columns, as a
        :class:`TxBatch`'s.  The removed prefix is deleted once no row is
        left or the cursor passes :data:`COMPACT_AT`."""
        head, payloads, sizes = self.head, self.payloads, self.sizes
        end = head + count
        popped = (self.ids[head:end], self.clients[head:end],
                  tuple(payloads[head:end]) if payloads.__class__ is list
                  else payloads,
                  tuple(sizes[head:end]) if sizes.__class__ is list
                  else sizes, self.created[head:end])
        self.n -= count
        if end >= self.COMPACT_AT or not self.n:
            del self.ids[:end], self.clients[:end], self.created[:end]
            for column in (payloads, sizes):
                if column.__class__ is list:
                    del column[:end]
            end = 0
        self.head = end
        return popped


class QueueSource:
    """A FIFO mempool fed by generators or simulated clients.

    Deduplicates by transaction key (a :class:`TxKeySet`, a few bytes a
    key) so a client retransmission cannot be executed twice.  An
    optional ``capacity`` bounds admission: beyond it new submissions are
    dropped (typed, counted in ``drops``) instead of growing the queue —
    and the backlog — without bound during overload or an outage.
    Dropped transactions do **not** enter the dedup set, so a client
    retry after the backlog drains is admitted normally.  Every method
    and counter first pulls what an attached :class:`ArrivalStream` has
    delivered by now (``take``, ``pending`` and ``submit``, read per
    block or per request, test for a stream in line).

    The queue is columns (a :class:`_Columns`): a landing is admitted as
    a batch, a submitted transaction is buffered in ``_rows`` and folded
    in, in order, before the columns are next read or grown, and
    ``take`` pops one :class:`~repro.chain.transaction.TxBatch` off them.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None = unbounded)")
        self._seen = TxKeySet()
        self.capacity = capacity
        self._arrivals: Optional[ArrivalStream] = None
        self._submitted = 0
        self._drops: dict[str, int] = {}
        self._rows: list[Transaction] = []
        self._queue, self._depth = _Columns(), 0

    def catch_up(self) -> None:
        """Pull in what the attached arrival stream has delivered by now."""
        if self._arrivals is not None:
            self._arrivals.catch_up()

    def _fold(self) -> None:
        """Move the buffered submissions into the columns, in order."""
        rows, self._rows = self._rows, []
        count = len(rows)
        ids, clients, payloads, sizes, created = zip(*map(_rows, rows))
        if payloads == payloads[:1] * count:
            payloads = payloads[0]
        if sizes == sizes[:1] * count:
            sizes = sizes[0]
        self._queue.push(count, ids, clients, payloads, sizes, created)

    def _admit(self, count: int, ids, clients, payloads, sizes,
               created) -> int:
        """Pass ``count`` landed transactions, given as a
        :class:`TxBatch`'s columns, through the door in order; how many
        got in.  The whole landing is checked at once: room for all of
        it, then distinct keys, none seen before (``TxKeySet.add_new``
        over the two id columns, which marks them seen).  Otherwise each
        goes through :meth:`_admit_one`, so drops and order are the same.
        """
        capacity = self.capacity
        if self._rows:
            self._fold()
        if (capacity is None or self._depth + count <= capacity) \
                and self._seen.add_new(clients, ids):
            self._queue.push(count, ids, clients, payloads, sizes, created)
            self._depth += count
            self._submitted += count
            return count
        depth = self._depth
        keep = list(map(self._admit_one, zip(clients, ids)))
        admitted = self._depth - depth
        if admitted:
            self._queue.push(admitted, *[
                list(compress(values, keep))
                if values.__class__ in COLUMN_TYPES else values
                for values in (ids, clients, payloads, sizes, created)])
        return admitted

    def _admit_one(self, key) -> bool:
        """Admit ``key`` or count why not; whether it got in.  A seen key
        is a duplicate, full or not; a full queue drops the rest as
        overflow, and does not mark them seen."""
        if self.capacity is not None and self._depth >= self.capacity:
            reason = DROP_DUPLICATE if key in self._seen else DROP_OVERFLOW
        elif self._seen.add(key):
            self._depth += 1
            self._submitted += 1
            return True
        else:
            reason = DROP_DUPLICATE
        self._drops[reason] = self._drops.get(reason, 0) + 1
        return False

    def submit(self, tx: Transaction) -> bool:
        """Add a transaction; returns False for duplicates/overflow."""
        if self._arrivals is not None:
            self._arrivals.catch_up()
        if self._admit_one(tx.key):
            self._rows.append(tx)
            return True
        return False

    submitted = caught_up("_submitted", "Transactions admitted so far.")
    drops = caught_up("_drops", "Refused submissions by reason (DROP_*).")

    def dropped(self, reason: str) -> int:
        """Drops recorded for ``reason`` (see DROP_* constants)."""
        return self.drops.get(reason, 0)

    duplicates_dropped = property(lambda self: self.dropped(DROP_DUPLICATE),
                                  doc="Submissions refused as duplicates.")

    def take(self, count: int, now: float) -> TxBatch:
        """Pop up to ``count`` transactions, as one batch."""
        if self._arrivals is not None:
            self._arrivals.catch_up()
        if self._rows:
            self._fold()
        depth = self._depth
        if not depth or count <= 0:
            return EMPTY_BATCH
        taken = TxBatch(*self._queue.pop(count if count < depth else depth))
        self._depth = depth - taken.n
        return taken

    def requeue(self, txs: TxBatch) -> None:
        """Put a batch's transactions back at the head (a proposal failed).

        Requeues bypass the capacity check: these transactions were
        already admitted once, and dropping them here would silently
        unorder work the leader pulled.  Admission control applies at
        the door only.
        """
        self.catch_up()
        if self._rows:
            self._fold()
        rest = self._queue.pop(self._depth)     # empties the columns
        self._queue.push(txs.n, *txs.columns())
        self._queue.push(self._depth, *rest)
        self._depth += txs.n

    def reset(self) -> None:
        """Wipe the mempool — it is volatile state, so a whole-group crash
        loses it.  Without this, a transaction taken into a proposal that
        died with the group stays in the dedup set forever and every
        client retransmission of it is dropped: it becomes permanently
        unorderable.  (Already-*committed* transactions are still safe to
        resubmit after a wipe: replicas answer those from the durable
        store without re-queueing.)"""
        self.catch_up()
        self._rows, self._queue, self._depth = [], _Columns(), 0
        self._seen.clear()

    def pending(self) -> int:
        """Transactions currently queued."""
        if self._arrivals is not None:
            self._arrivals.catch_up()
        return self._depth


_NEVER = float("inf")  # `_next_at` while not emitting (idle, paused, stopped)

#: Open-loop transactions come from this many client ids, round-robin.
OPEN_LOOP_CLIENTS = 16

#: ``random.sample`` picks from a pool, not a set, up to this population
#: for a sample of two (its ``setsize``).
_SAMPLE_POOL_MAX = 21


class ArrivalStream:
    """Open-loop arrivals as data: a seeded stream its mempool pulls.

    Arrivals never depend on the protocol, which only *observes* the
    mempool, so they are not simulator events.  Every read of the queue or
    the stream calls :meth:`catch_up`: it **emits** each arrival whose
    instant ``e <= now`` (drawing the next gap *at* ``e``, with the rate in
    force at ``e``), then **lands** each one whose client hop is over
    (``e + hop <= now``) through the queue's admission checks — float for
    float the instants of one event per step.  The steps are separate so
    that a rate change, which catches up first, cannot reach requests
    already on the hop.  Only one arrival is ever drawn ahead.  A subclass
    supplies ``_arm()`` (place ``_next_at`` on starting) and
    ``_emit_through(now)`` (push every arrival due by ``now`` onto the
    ``_flying`` columns, instants rising, and leave ``_next_at`` beyond
    it); a landing is the due prefix of those columns, popped.
    """

    def __init__(self, sim: Simulator, source: QueueSource,
                 client_one_way_ms: float, payload_size: int) -> None:
        self.sim = sim
        self.source = source
        self.client_one_way_ms = client_one_way_ms
        self.payload_size = payload_size
        self._flying = _Columns()
        self._next_at = _NEVER
        self._running = False
        self._accepted = 0

    def start(self) -> None:
        """Begin generating arrivals."""
        self.source._arrivals = self
        self._running = True
        self._arm()

    def stop(self) -> None:
        """Stop generating (what was emitted by now still lands)."""
        self.catch_up()
        self._running = False
        self._next_at = _NEVER

    def catch_up(self) -> None:
        """Emit, then land, everything due by ``sim.now``."""
        now = self.sim.now
        if self._next_at <= now:
            self._emit_through(now)
        flying = self._flying
        if flying.n:
            created, head = flying.created, flying.head
            hop = self.client_one_way_ms
            if created[head] + hop <= now:
                due = flying.n
                if created[-1] + hop > now:     # a prefix: instants rise
                    due = bisect_right(created, now, head,
                                       key=partial(add, hop)) - head
                self._accepted += self.source._admit(due, *flying.pop(due))


class OpenLoopGenerator(ArrivalStream):
    """Poisson open-loop arrivals at a fixed offered load (Fig. 4).

    Transactions are created at the client, then arrive at the mempool one
    client→replica hop later.  ``rate_tps`` is in transactions per second;
    simulation time is milliseconds.  A new ``rate_tps`` mid-run applies
    from the next emission (the gap already drawn stands); ``<= 0`` is a
    pause, and the next gap is drawn when the rate turns positive again.

    ``kv_keys > 0`` switches to KV-shaped payloads — round-robin
    ``"SET k<i> v<seq>"`` writes over that many distinct keys, so the
    replicated state machine materializes real state (the snapshot
    campaigns need non-opaque writes).  The declared ``payload_size``
    still governs the wire size (see ``Transaction.wire_size``), and the
    arrival process draws identically, so switching payload shape never
    perturbs timing.
    """

    def __init__(self, sim: Simulator, source: QueueSource, rate_tps: float,
                 payload_size: int = 256, client_one_way_ms: float = 0.05,
                 kv_keys: int = 0) -> None:
        super().__init__(sim, source, client_one_way_ms, payload_size)
        self._rate_tps = rate_tps
        self.kv_keys = kv_keys
        self._rng = sim.fork_rng("open-loop")
        # Gaps are read from ``_rng`` in blocks of standard exponentials
        # ``e`` (a gap is ``e / rate``): ``_exponentials[_drawn]`` is next.
        self._exponentials: list[float] = []
        self._drawn = 0
        self._next_id = 0

    @property
    def rate_tps(self) -> float:
        """The offered load in force for the next gap drawn."""
        return self._rate_tps

    @rate_tps.setter
    def rate_tps(self, rate: float) -> None:
        self.catch_up()
        paused = self._rate_tps <= 0
        self._rate_tps = rate
        if rate <= 0:
            self._next_at = _NEVER
        elif paused and self._running:
            self._arm()

    def _arm(self) -> None:
        if self._rate_tps > 0:
            if self._drawn == len(self._exponentials):
                self._exponentials = exponential_block(self._rng)
                self._drawn = 0
            e = self._exponentials[self._drawn]
            self._drawn += 1
            self._next_at = self.sim.now + e / (self._rate_tps / 1000.0)

    def _emit_through(self, now: float) -> None:
        # Every arrival due from the current block of gaps at once: the
        # instants are the running sums ``at = at + e / rate`` (float for
        # float), the due ones a prefix of them, put on the hop as
        # columns.  No call per arrival; a refill per block of gaps.
        at, seq = self._next_at, self._next_id
        clients, keys = OPEN_LOOP_CLIENTS, self.kv_keys
        rate = self._rate_tps / 1000.0
        exponentials, drawn = self._exponentials, self._drawn
        while at <= now:
            if drawn == len(exponentials):
                exponentials = self._exponentials = \
                    exponential_block(self._rng)
                drawn = 0
            instants = list(accumulate(
                map(truediv, islice(exponentials, drawn, None), repeat(rate)),
                initial=at))
            # Each emitted arrival draws the gap to the next instant, so at
            # most one arrival per gap left in the block.
            due = min(bisect_right(instants, now), len(instants) - 1)
            tx_ids = range(seq + 1, seq + due + 1)
            self._flying.push(
                due, tx_ids, list(map(mod, tx_ids, repeat(clients))),
                [f"SET k{i % keys} v{i}" for i in tx_ids] if keys > 0
                else "", self.payload_size, instants[:due])
            seq += due
            drawn += due
            at = instants[due]
        self._next_at, self._next_id, self._drawn = at, seq, drawn


class ShardedOpenLoopGenerator:
    """Poisson open-loop traffic over a sharded deployment.

    Each arrival is either a single-shard write routed through the
    :class:`~repro.shard.router.Router` (probability ``1 -
    cross_fraction``) or a cross-shard transaction spanning
    two distinct shards driven through the 2PC
    :class:`~repro.shard.txn.TxnManager`.  ``rate_tps`` is *per shard*,
    so the offered load scales with the deployment (the weak-scaling
    shape of the throughput-vs-shard-count sweep).

    Key pools are deterministic: keys ``k0, k1, ...`` are assigned to
    shards by the shard map's own hash placement until every shard owns
    ``keys_per_shard`` keys — a pure function of the shard count, so
    every seed and every process draws writes over the same key sets.

    ``stop_cross()`` ends cross-shard initiation while single-shard
    writes keep flowing: chaos campaigns call it at quiesce start so all
    2PC instances resolve (commit, abort, or TTL-expire — expiry needs
    blocks, which the continuing writes provide) before the atomicity
    audit runs.

    An arrival's draws are decoded from the stream's 32-bit words
    (:func:`~repro.sim.loop.word_block`), each what the stdlib call would
    return, so a pool holds fewer than 2**32 keys.  An arrival stays a
    simulator event, unlike a :class:`TrafficGenerator`'s: it is a
    router's network send at its own instant, not a row a mempool pulls.
    """

    def __init__(self, sim: Simulator, router, txns, rate_tps: float,
                 cross_fraction: float = 0.0, keys_per_shard: int = 32,
                 payload_size: int = 0) -> None:
        shard_map = router.shard_map
        if not 0.0 <= cross_fraction <= 1.0:
            raise ValueError(f"cross_fraction must be in [0,1], "
                             f"got {cross_fraction}")
        if shard_map.n_shards < 2 and cross_fraction > 0.0:
            raise ValueError("cross-shard traffic needs at least two shards")
        if not 0 < keys_per_shard < WORD_BOUND:
            raise ValueError(f"keys_per_shard must be in [1, 2**32), "
                             f"got {keys_per_shard}")
        self.sim = sim
        self.router = router
        self.txns = txns
        self.n_shards = n = shard_map.n_shards
        self.rate_tps = rate_tps
        self.cross_fraction = cross_fraction
        self.payload_size = payload_size
        self._rng = sim.fork_rng("shard-open-loop")
        # The stream's words (word_block); ``_words[_pos]`` is next.  Each
        # draw keeps the top ``32 - bound.bit_length()`` bits of a word.
        self._words: "tuple[int, ...]" = ()
        self._pos = 0
        # ``sample(range(n), 2)`` draws its second index below ``n - 1``
        # from a pool while ``n`` is at most 21, else below ``n`` again
        # until it differs from the first.
        self._other = n - 1 if n <= _SAMPLE_POOL_MAX else n
        self._drops = (32 - n.bit_length(), 32 - self._other.bit_length(),
                       32 - keys_per_shard.bit_length())
        self._stopped = False
        self._seq = 0
        self.keys_by_shard: list[list[str]] = [[] for _ in range(n)]
        i = 0
        while any(len(pool) < keys_per_shard for pool in self.keys_by_shard):
            key = f"k{i}"
            pool = self.keys_by_shard[shard_map.shard_of(key)]
            if len(pool) < keys_per_shard:
                pool.append(key)
            i += 1
        self._keys = keys_per_shard
        self.writes_issued = 0
        self.txns_issued = 0

    def start(self) -> None:
        """Begin generating arrivals (one Poisson process per shard)."""
        for _ in range(self.n_shards):
            self._schedule_next()

    def stop(self) -> None:
        """Stop generating entirely."""
        self._stopped = True

    def stop_cross(self) -> None:
        """Stop initiating cross-shard transactions; writes continue."""
        self.cross_fraction = 0.0

    def _schedule_next(self) -> None:
        if self._stopped or self.rate_tps <= 0:
            return
        # expovariate(rate_tps / 1000.0), from the stream's next two words.
        words, pos = self._words, self._pos
        while True:
            try:
                u = ((words[pos] >> 5) * 67108864.0
                     + (words[pos + 1] >> 6)) / TWO_53
                break
            except IndexError:
                words, pos = words[pos:] + word_block(self._rng), 0
        self._words, self._pos = words, pos + 2
        self.sim.schedule_fast(-log(1.0 - u) / (self.rate_tps / 1000.0),
                               self._emit)

    def _emit(self) -> None:
        if self._stopped:
            return
        self._seq += 1
        # The stdlib's draws decoded in line from the stream's words:
        # ``random() < cross_fraction`` (only while it is positive), the
        # shard by ``randrange(n)``, which is also the first index of a
        # cross-shard ``sample(range(n), 2)``, its second index, then a
        # ``choice`` of key in each shard drawn.  Decoding only reads
        # words, so an arrival that runs off the block is decoded again
        # from its first word over the block's tail and a fresh block.
        words, pos, cross = self._words, self._pos, self.cross_fraction
        n, other_bound, keys = self.n_shards, self._other, self._keys
        n_drop, other_drop, key_drop = self._drops
        while True:
            mark = pos
            try:
                txn = False
                if cross > 0.0:
                    txn = ((words[pos] >> 5) * 67108864.0
                           + (words[pos + 1] >> 6)) / TWO_53 < cross
                    pos += 2
                shard = words[pos] >> n_drop
                pos += 1
                while shard >= n:
                    shard = words[pos] >> n_drop
                    pos += 1
                if txn:
                    other = words[pos] >> other_drop
                    pos += 1
                    while other >= other_bound or (
                            other == shard and other_bound == n):
                        other = words[pos] >> other_drop
                        pos += 1
                    if other == shard:  # the pool's vacancy holds n - 1
                        other = n - 1
                key = words[pos] >> key_drop
                pos += 1
                while key >= keys:
                    key = words[pos] >> key_drop
                    pos += 1
                if txn:
                    other_key = words[pos] >> key_drop
                    pos += 1
                    while other_key >= keys:
                        other_key = words[pos] >> key_drop
                        pos += 1
                break
            except IndexError:
                words, pos = words[mark:] + word_block(self._rng), 0
        self._words, self._pos = words, pos
        pools = self.keys_by_shard
        if txn:
            self.txns.begin({pools[shard][key]: f"v{self._seq}.0",
                             pools[other][other_key]: f"v{self._seq}.1"})
            self.txns_issued += 1
        else:
            self.router.submit_write(pools[shard][key], f"v{self._seq}",
                                     payload_size=self.payload_size)
            self.writes_issued += 1
        self._schedule_next()


class FiniteWorkload:
    """Submit a fixed batch of transactions up front (examples/tests)."""

    def __init__(self, sim: Simulator, count: int, payload_size: int = 0,
                 payload_prefix: str = "") -> None:
        self.source = QueueSource()
        count = max(count, 0)
        tx_ids = range(1, count + 1)
        self.source._admit(count, tx_ids, array("B", bytes(count)),
                           [f"{payload_prefix}{i}" if payload_prefix
                            else make_payload(payload_size, i)
                            for i in tx_ids], payload_size, sim.now)

    def take(self, count: int, now: float) -> TxBatch:
        """Delegate to the underlying queue."""
        return self.source.take(count, now)

    def pending(self) -> int:
        """Transactions remaining."""
        return self.source.pending()


__all__ = [
    "DROP_DUPLICATE",
    "DROP_OVERFLOW",
    "SaturatedSource",
    "QueueSource",
    "ArrivalStream",
    "OpenLoopGenerator",
    "ShardedOpenLoopGenerator",
    "FiniteWorkload",
    "make_payload",
]
