"""Layer probes: protocol-free loops over one package's public functions.

Each probe does a fixed amount of work (so its operation count repeats
exactly) and reports operations per host-second.  They tell a slower
layer from a slower machine: ``calib_s`` is a stdlib-only loop of fixed
size, reported so ledgers from different machines can be normalised.
"""

from __future__ import annotations

import time

from repro.chain.block import create_leaf, genesis_block
from repro.chain.checkpoint import (combine_checkpoint_votes,
                                    make_checkpoint_vote)
from repro.chain.execution import KVStateMachine
from repro.chain.snapshot import build_snapshot
from repro.chain.transaction import Transaction
from repro.crypto.keys import Keyring, generate_keypairs
from repro.crypto.signatures import sign, verify
from repro.net.latency import LAN_PROFILE
from repro.net.network import Network
from repro.sim.loop import Simulator
from repro.storage.journal import PowerCutController, WriteAheadJournal
from repro.tee.enclave import Enclave


def _rate(ops: int, start: float) -> float:
    return ops / (time.perf_counter() - start)


def calib_s() -> float:
    """Seconds for a fixed stdlib-only loop (dict, list, float, hash)."""
    start = time.perf_counter()
    table: dict = {}
    total = 0.0
    for i in range(300_000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        total += i * 0.5
    ordered = sorted(table.items())
    assert ordered and total > 0
    return time.perf_counter() - start


def sim_core_events_per_s() -> float:
    """The event core alone, in the shape of an f=10 round: a 31-way
    ``schedule_at_fast`` fan-out plus re-arming, cancelled timers (the
    storm of benchmarks/test_simulator_perf.py)."""
    n = 31
    sim = Simulator(seed=1)
    acks = [0]
    fast = sim.schedule_at_fast

    def deliver():
        acks[0] += 1
        if acks[0] == n:
            acks[0] = 0
            broadcast()

    def broadcast():
        at = sim.now + 0.1
        for _ in range(n):
            fast(at, deliver)

    def noop():
        pass

    timers: list = [None] * n

    def rearm(i):
        old = timers[i]
        if old is not None:
            old.cancel()
        timers[i] = sim.schedule(7.5, noop, label="timeout")
        sim.schedule_fast(2.5, rearm, i)

    for i in range(n):
        sim.schedule_fast(0.01 * i, rearm, i)
    sim.schedule_fast(0.0, broadcast)
    start = time.perf_counter()
    sim.run(until=400.0)
    return _rate(sim.events_processed, start)


def crypto_sign_verify_ops_per_s() -> float:
    pairs = generate_keypairs(range(4), seed=1)
    keyring = Keyring.from_keypairs(pairs)
    private = pairs[0].private
    ops = 20_000
    start = time.perf_counter()
    for i in range(ops):
        signature = sign(private, "probe", i)
        assert verify(keyring, signature, "probe", i)
    return _rate(ops, start)


def tee_seal_unseal_ops_per_s() -> float:
    enclave = Enclave("probe")
    payload = {"view": 7, "hash": "ab" * 32}
    ops = 20_000
    start = time.perf_counter()
    for i in range(ops):
        enclave.seal_state("state", payload)
        assert enclave.unseal_state("state") == payload
    enclave.drain_cost()
    return _rate(ops, start)


def storage_journal_append_ops_per_s() -> float:
    """write → fsync → commit cycles on a journal that retains records (a
    recording controller attached, as in a power-cut exploration)."""
    controller = PowerCutController()
    ops, total = 400, 0
    start = time.perf_counter()
    # Fresh journals: a flush scans every retained record, so one long
    # journal would time the scan, not the append.
    for j in range(25):
        journal = WriteAheadJournal(f"probe{j}")
        controller.register(journal)
        for i in range(ops):
            journal.log("put", f"k{i}", i)
        total += ops
    assert len(controller.points) == 3 * total
    return _rate(total, start)


def _kv_batch(base: int, size: int = 400) -> tuple:
    return tuple(Transaction(i % 64, i, f"SET k{i % 512} v{i}", 32, 0.0)
                 for i in range(base, base + size))


def chain_execute_tx_per_s() -> float:
    machine = KVStateMachine()
    batches = [_kv_batch(b * 400) for b in range(100)]
    start = time.perf_counter()
    for batch in batches:
        machine.apply_batch(batch)
    return _rate(400 * len(batches), start)


def chain_snapshot_build_validate_per_s() -> float:
    pairs = generate_keypairs(range(3), seed=1)
    keyring = Keyring.from_keypairs(pairs)
    machine = KVStateMachine()
    machine.apply_batch(_kv_batch(0, 512))
    block = create_leaf(_kv_batch(512, 8), "probe", genesis_block(), 1, 0)
    root = machine.state_root
    votes = [make_checkpoint_vote(pairs[i].private, block.height,
                                  block.hash, root) for i in range(2)]
    certificate = combine_checkpoint_votes(votes, 2)
    ops = 300
    start = time.perf_counter()
    for _ in range(ops):
        snapshot = build_snapshot(block, machine, certificate)
        assert snapshot.validate(keyring, 2)
    return _rate(ops, start)


class _Sink:
    def __init__(self) -> None:
        self.delivered = 0

    def deliver(self, envelope) -> None:
        self.delivered += 1


def net_send_deliver_msgs_per_s() -> float:
    sim = Simulator(seed=1)
    network = Network(sim, latency=LAN_PROFILE)
    sinks = [_Sink(), _Sink()]
    for node_id, sink in enumerate(sinks):
        network.attach(node_id, sink)
    ops = 40_000
    payload = ("probe", 0)
    start = time.perf_counter()
    for i in range(ops):
        network.send(i & 1, 1 - (i & 1), payload)
    sim.run()
    assert sinks[0].delivered + sinks[1].delivered == ops
    return _rate(ops, start)


#: (metric name, unit, probe), in report order.
PROBES = (
    ("sim.core_events_per_s", "1/s", sim_core_events_per_s),
    ("crypto.sign_verify_ops_per_s", "1/s", crypto_sign_verify_ops_per_s),
    ("tee.seal_unseal_ops_per_s", "1/s", tee_seal_unseal_ops_per_s),
    ("storage.journal_append_ops_per_s", "1/s",
     storage_journal_append_ops_per_s),
    ("chain.execute_tx_per_s", "1/s", chain_execute_tx_per_s),
    ("chain.snapshot_build_validate_per_s", "1/s",
     chain_snapshot_build_validate_per_s),
    ("net.send_deliver_msgs_per_s", "1/s", net_send_deliver_msgs_per_s),
    ("calib_s", "s", calib_s),
)


def run_probes() -> dict:
    """Every probe once, in order; ``{name: value}``."""
    return {name: probe() for name, _unit, probe in PROBES}


if __name__ == "__main__":
    for name, value in run_probes().items():
        print(f"{name:40s} {value:14.4f}")
