#!/usr/bin/env python3
"""A replicated key-value bank on Achilles, with clients and a mid-run
node reboot.

This is the workload the paper's introduction motivates: a shared database
replicated across mutually distrusting machines.  Real simulated clients
submit ``SET account balance`` transactions through the network, wait for
certified replies (one reply suffices — reply responsiveness, Sec. 6.1),
and the example applies every committed block to a deterministic key-value
state machine on each node, then proves all replicas converged to the same
state root — across a crash, a rollback-resilient recovery, and rejoin.

Run:  python examples/replicated_bank.py
"""

from __future__ import annotations

from repro import MetricsCollector, QueueSource, SimulatedClient, build_achilles_cluster
from repro.chain.execution import KVStateMachine
from repro.consensus.config import ProtocolConfig
from repro.faults.scenarios import crash_and_reboot
from repro.net.latency import LAN_PROFILE

ACCOUNTS = ["alice", "bob", "carol", "dave"]


def main() -> None:
    f = 2
    config = ProtocolConfig.tee_committee(
        f=f, batch_size=16, payload_size=0, base_timeout_ms=100.0,
    )
    collector = MetricsCollector()
    cluster = build_achilles_cluster(
        f=f, latency=LAN_PROFILE, config=config,
        source_factory=lambda sim: QueueSource(),
        listener=collector, seed=7,
    )

    clients = [
        SimulatedClient(cluster.sim, cluster.network, client_index=i,
                        n_replicas=config.n, retry_ms=400.0)
        for i in range(2)
    ]

    # Deposit schedule: 40 updates spread over the run, through both
    # clients, targeted at different replicas.
    for i in range(40):
        account = ACCOUNTS[i % len(ACCOUNTS)]
        client = clients[i % len(clients)]
        amount = 100 + i
        cluster.sim.schedule(
            5.0 + i * 8.0,
            lambda c=client, a=account, amt=amount, i=i: c.submit(
                payload=f"SET {a} {amt}", to_replica=i % config.n),
        )

    # Crash node 3 mid-run; it must recover via Algorithm 3 and rejoin.
    crash_and_reboot(cluster, node_id=3, at_ms=150.0, downtime_ms=20.0)

    cluster.start()
    cluster.run(1500.0)
    cluster.assert_safety()

    # Replay every node's committed chain through a KV state machine.
    roots = []
    for node in cluster.nodes:
        machine = KVStateMachine()
        for block in node.store.committed_chain():
            machine.apply_batch(block.txs)
        roots.append(machine.state_root)
    final = KVStateMachine()
    for block in cluster.nodes[0].store.committed_chain():
        final.apply_batch(block.txs)

    print("final balances (replica 0):")
    for account in ACCOUNTS:
        print(f"  {account:6s} = {final.get(account)}")
    replied = sum(len(c.latencies()) for c in clients)
    print(f"client transactions replied: {replied}/40")
    mean_latency = (
        sum(sum(c.latencies()) for c in clients) / replied if replied else 0.0
    )
    print(f"mean end-to-end latency:     {mean_latency:.2f} ms")
    node3 = cluster.nodes[3]
    episode = node3.recovery_episodes[0]
    print(f"node 3 recovery:             init {episode.init_ms:.1f} ms + "
          f"protocol {episode.protocol_ms:.2f} ms")
    print(f"state roots identical on all {config.n} replicas: "
          f"{len(set(roots)) == 1}")
    assert len(set(roots)) == 1
    assert replied == 40


if __name__ == "__main__":
    main()
