#!/usr/bin/env python3
"""A long-running replicated service: checkpoints, fast reads, and churn.

Runs an Achilles committee for five simulated seconds with everything a
production deployment would turn on:

* **checkpointing** — every 50 blocks the nodes exchange f+1 checkpoint
  votes and compact their logs, so memory stays bounded forever;
* **fast reads** — a client reads keys with n−f matching replies and no
  consensus round (paper Sec. 6.1);
* **churn** — nodes crash and recover on a rolling schedule; one of them
  falls so far behind that it must catch up by certified state transfer
  rather than block replay.

Run:  python examples/long_running_service.py      (~30 s wall time)
"""

from __future__ import annotations

from repro import MetricsCollector, ProtocolConfig, SaturatedSource, build_achilles_cluster
from repro.client.client import SimulatedClient
from repro.faults.scenarios import Crash, install_crashes
from repro.net.latency import LAN_PROFILE


def main() -> None:
    f = 2
    config = ProtocolConfig.tee_committee(
        f=f, batch_size=100, payload_size=64,
        base_timeout_ms=60.0,
        checkpoint_interval=50, checkpoint_retain=60,
        maintain_state=True,
    )
    collector = MetricsCollector(warmup_ms=100.0)
    cluster = build_achilles_cluster(
        f=f, latency=LAN_PROFILE, config=config,
        source_factory=lambda sim: SaturatedSource(sim, payload_size=64),
        listener=collector, seed=99,
    )

    # Rolling churn: three nodes reboot once each, well apart.
    install_crashes(cluster, [
        Crash(at, node, at + 15.0)
        for node, at in ((1, 800.0), (3, 2000.0), (0, 3200.0))])

    cluster.start()
    cluster.run(5000.0)
    cluster.assert_safety()

    print("after 5 simulated seconds with churn + compaction:")
    print(f"  throughput:        {collector.throughput_ktps():.1f} KTPS")
    print(f"  commit latency:    {collector.commit_latency.mean:.2f} ms")
    tips = [n.store.committed_tip.height for n in cluster.nodes]
    bases = [n.store.compaction_base.height for n in cluster.nodes]
    sizes = [len(n.store) for n in cluster.nodes]
    print(f"  committed heights: {tips}")
    print(f"  compaction bases:  {bases}   (blocks below are pruned)")
    print(f"  blocks held:       {sizes}   (bounded by checkpoint_retain)")
    recoveries = sum(len(n.recovery_episodes) for n in cluster.nodes)
    print(f"  recoveries:        {recoveries} completed")
    assert max(sizes) < 200, "compaction must bound the store"
    assert recoveries == 3

    # Fast read against the live state (no consensus round).
    client = SimulatedClient(cluster.sim, cluster.network, client_index=0,
                             n_replicas=config.n)
    operation = client.read("anything", f=f)
    cluster.run(50.0)
    print(f"  fast read:         done={operation.done} in "
          f"{operation.latency_ms:.2f} ms "
          f"({operation.quorum} matching replies needed)")
    assert operation.done


if __name__ == "__main__":
    main()
