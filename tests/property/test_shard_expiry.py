"""The shard machine's TTL sweep equals the full sorted sweep it replaced.

``ShardStateMachine._expire`` finds the prepares that are due from an
index of the still-prepared transactions.  The sweep it was first
written as sorted every transaction the shard had ever seen, on every
block; it survives here as :class:`SweepOracle`, and seeded random 2PC
logs with a small TTL are applied to both, block by block: the locks,
every status, the expiry count, the history, the outcomes and the root
must agree after every block.
"""

from __future__ import annotations

import random

import pytest

from repro.chain.transaction import Transaction
from repro.crypto.hashing import digest_of
from repro.shard.machine import ShardStateMachine


class SweepOracle(ShardStateMachine):
    """The TTL sweep as first written: every txid the shard has seen,
    sorted, on every block; the prepare heights kept on the side."""

    def __init__(self, txn_ttl_blocks) -> None:
        super().__init__(txn_ttl_blocks)
        self.heights: dict[str, int] = {}

    def _apply_prepare(self, txid, parts):
        fresh = txid not in self.txns
        outcome = super()._apply_prepare(txid, parts)
        if fresh and outcome == "prepared":
            self.heights[txid] = self.state_height + 1
        return outcome

    def _expire(self, height: int) -> None:
        ttl = self.txn_ttl_blocks
        if ttl is None:
            return
        for txid in sorted(self.txns):
            entry = self.txns[txid]
            if entry.status == "prepared" and \
                    height - self.heights[txid] >= ttl:
                for key in [k for k, h in self.locks.items() if h == txid]:
                    del self.locks[key]
                entry.status = "aborted"
                self.expired += 1
                self._history = digest_of(self._history,
                                          ("TEXP", txid, height))
                self._root = None


KEYS = "abcdefghijklmnop"


def random_log(rng: random.Random, blocks: int) -> list:
    """``blocks`` batches of 2PC phases, writes and opaque entries over a
    growing pool of txids (``t1``, ``t2``, ... so that sorted order and
    prepare order differ once past ``t9``) and 16 keys, so that locks
    conflict, commits arrive after expiry and several prepares fall due
    in one block."""
    log, minted = [], 0
    for _ in range(blocks):
        batch = []
        for _ in range(rng.randrange(0, 6)):
            roll = rng.random()
            if roll < 0.45 or not minted:
                minted += 1
                writes = "&".join(f"{k}={rng.randrange(9)}"
                                  for k in rng.sample(KEYS, rng.randrange(1, 3)))
                batch.append(f"TPREP t{minted} {writes}")
                continue
            txid = f"t{rng.randrange(1, minted + 1)}"
            if roll < 0.55:
                batch.append(f"TCMT {txid}")
            elif roll < 0.7:
                batch.append(f"TABT {txid}")
            elif roll < 0.8:
                batch.append(f"TDEC {txid} {rng.choice(('commit', 'abort'))}")
            elif roll < 0.85:
                batch.append(f"TPREP {txid} {rng.choice(KEYS)}=1")
            elif roll < 0.95:
                batch.append(f"SET {rng.choice(KEYS)} v{rng.randrange(9)}")
            else:
                batch.append("opaque")
        log.append(batch)
    return log


def observed(machine: ShardStateMachine) -> tuple:
    return (dict(machine.locks),
            {txid: entry.status for txid, entry in machine.txns.items()},
            machine.expired, machine.late_commit_rejects, machine._history,
            dict(machine._outcomes), machine.applied, machine.state_root)


@pytest.mark.parametrize("seed", range(40))
def test_prepared_index_equals_the_sorted_sweep(seed):
    rng = random.Random(seed)
    ttl = rng.choice((1, 2, 3, 5, 8))
    machine, oracle = ShardStateMachine(ttl), SweepOracle(ttl)
    base = 0
    for height, payloads in enumerate(random_log(rng, 80), start=1):
        txs = [Transaction(1, base + i, p) for i, p in enumerate(payloads)]
        base += len(payloads)
        for m in (machine, oracle):
            m.apply_batch(txs)
            m.state_height = height
        assert observed(machine) == observed(oracle), (seed, height)


def test_the_random_logs_expire_several_prepares_in_one_block():
    """The fence is not vacuous: some block expires two or more prepares
    whose sorted order is not their prepare order."""
    reordered = 0
    for seed in range(40):
        rng = random.Random(seed)
        oracle = SweepOracle(rng.choice((1, 2, 3, 5, 8)))
        for height, payloads in enumerate(random_log(rng, 80), start=1):
            before = {t for t, e in oracle.txns.items()
                      if e.status == "prepared"}
            oracle.apply_batch([Transaction(1, i, p)
                                for i, p in enumerate(payloads)])
            oracle.state_height = height
            gone = [t for t in oracle.heights if t in before
                    and oracle.txns[t].status == "aborted"
                    and f"TABT {t}" not in payloads]
            if len(gone) > 1 and sorted(gone) != gone:
                reordered += 1
    assert reordered > 5


def test_the_fold_is_digest_of_the_effect():
    """A 2PC effect folds into the history as ``digest_of(history,
    (kind, txid, outcome))``, and an expiry as ``(TEXP, txid, height)``:
    a string last element and an int last element, a multi-byte txid."""
    machine = ShardStateMachine(2)
    history = machine._history
    machine.apply_batch([Transaction(1, 0, "TPREP tö1 a=1"),
                         Transaction(1, 1, "TDEC tö1 commit")])
    history = digest_of(history, ("TPREP", "tö1", "prepared"))
    history = digest_of(history, ("TDEC", "tö1", "decided-commit"))
    assert machine._history == history
    machine.state_height = 1
    machine.apply_batch([])
    machine.state_height = 2
    machine.apply_batch([])
    assert machine.expired == 1
    assert machine._history == digest_of(history, ("TEXP", "tö1", 3))
