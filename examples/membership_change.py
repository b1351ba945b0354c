#!/usr/bin/env python3
"""Dynamic membership change (the paper's Sec. 6.2 future work).

A 5-node Achilles committee runs with one pre-attested standby (node 5).
Mid-run, a committed ``RECONF REPLACE 1 5`` transaction retires node 1 and
promotes the standby — with no downtime, because membership is certified
by the chain (a TEE only switches groups on an f+1 commitment certificate)
and never read from sealed storage, sidestepping the stale-configuration
hazard the paper describes.

Run:  python examples/membership_change.py
"""

from __future__ import annotations

from repro.chain.transaction import TxBatch
from repro.client.workload import SaturatedSource
from repro.core.reconfig import build_reconfigurable_cluster, make_reconf_tx
from repro.harness.metrics import MetricsCollector
from repro.net.latency import LAN_PROFILE
from repro.consensus.config import ProtocolConfig


def main() -> None:
    f = 2
    collector = MetricsCollector()
    cluster = build_reconfigurable_cluster(
        f=f, standbys=1, latency=LAN_PROFILE,
        config=ProtocolConfig(n=6, f=f, batch_size=100, payload_size=64,
                              base_timeout_ms=80.0),
        source_factory=lambda sim: SaturatedSource(sim, payload_size=64),
        listener=collector, seed=11,
    )

    def inject_replacement() -> None:
        tx = make_reconf_tx(old_member=1, new_member=5, tx_id=10**6)
        original_take = cluster.source.take

        def take_once(count, now, _orig=original_take):
            cluster.source.take = _orig
            return TxBatch.of([tx, *_orig(count - 1, now)])

        cluster.source.take = take_once
        print(f"t={cluster.sim.now:7.1f} ms  injected: replace node 1 with "
              f"standby node 5")

    cluster.sim.schedule_at(150.0, inject_replacement)
    cluster.sim.trace.enabled = True    # keep the events read below
    cluster.start()
    cluster.run(800.0)
    cluster.assert_safety()

    events = [e for e in cluster.sim.trace.events if e.kind == "reconfiguration"]
    print(f"t={events[0].time:7.1f} ms  first node applied the replacement "
          f"(activates at view {events[0].detail['activation']})")
    active = sorted(n.node_id for n in cluster.nodes if not n.is_standby)
    print(f"\nactive committee now:  {active}")
    print(f"node 1 retired:        {cluster.nodes[1].is_standby}")
    proposers = {b.proposer
                 for b in cluster.nodes[0].store.committed_chain()[-15:]}
    print(f"recent block proposers: {sorted(proposers)}  "
          f"(standby 5 now leads views)")
    print(f"throughput across the swap: {collector.throughput_ktps():.1f} KTPS, "
          f"safety intact on all nodes")
    assert active == [0, 2, 3, 4, 5]
    assert 5 in proposers


if __name__ == "__main__":
    main()
