"""Plain-text table formatting for experiment reports.

The benchmarks print the same rows the paper's figures/tables plot; this
module renders them as aligned monospace tables (captured into
``bench_output.txt``).
"""

from __future__ import annotations

from typing import Any, Sequence


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_network_breakdown(stats_by_label: "dict[str, Any]",
                             transport_by_label: "dict[str, dict]" = None,
                             title: str = "network fault/transport breakdown") -> str:
    """Render per-run network statistics with the drop-cause split.

    ``stats_by_label`` maps a row label to a
    :class:`repro.net.network.NetworkStats`; ``transport_by_label``
    optionally maps the same labels to
    :meth:`repro.net.network.Network.transport_totals` dicts, adding the
    retransmission/dedup columns.  The split answers *who* lost each
    message: the adversary (targeted), the fault model (stochastic), or a
    detached destination.
    """
    transport_by_label = transport_by_label or {}
    headers = ["run", "sent", "delivered", "adv-drop", "fault-drop",
               "undeliv", "dup'd", "dup-deliv", "corrupt", "rejected"]
    with_transport = bool(transport_by_label)
    if with_transport:
        headers += ["retrans", "dedup", "acks", "evicted"]
    rows = []
    for label, stats in stats_by_label.items():
        row = [label, stats.messages_sent, stats.messages_delivered,
               stats.adversary_dropped, stats.fault_dropped,
               stats.undeliverable_dropped, stats.fault_duplicated,
               stats.duplicates_delivered, stats.fault_corrupted,
               stats.corrupt_rejected]
        if with_transport:
            totals = transport_by_label.get(label, {})
            row += [totals.get("retransmissions", 0),
                    totals.get("dup_suppressed", 0),
                    totals.get("acks_sent", 0),
                    totals.get("window_evictions", 0)]
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_byz_breakdown(results: "Sequence[Any]",
                         title: str = "Byzantine attack breakdown") -> str:
    """Render per-strategy attempt/denial counters of chaos results.

    ``results`` are :class:`repro.faults.chaos.ChaosResult` objects whose
    ``extras`` carry ``byz_attempts``/``byz_denials`` (byz-configured runs
    only; others are skipped).  One row per (run, strategy): how often the
    attack engaged, how often the TEE refused it outright, whether the
    run still upheld every invariant — the at-a-glance answer to "did the
    attack actually happen, and did the defense hold?".
    """
    headers = ["protocol", "f", "seed", "strategy", "attempts",
               "tee-denials", "violations"]
    rows = []
    for result in results:
        attempts = result.extras.get("byz_attempts")
        if attempts is None:
            continue
        denials = result.extras.get("byz_denials", {})
        for name in attempts:
            rows.append([result.protocol, result.f, result.seed, name,
                         attempts[name], denials.get(name, 0),
                         len(result.violations)])
        for name in result.extras.get("byz_skipped", ()):
            rows.append([result.protocol, result.f, result.seed,
                         f"{name} (n/a)", "-", "-", len(result.violations)])
    return format_table(headers, rows, title=title)


def format_slo_breakdown(stats_by_label: "dict[str, Any]",
                         title: str = "latency SLO breakdown") -> str:
    """Render per-row latency SLO columns (p50/p99/p999).

    ``stats_by_label`` maps a row label (a shard, a protocol, an
    aggregate) to a :class:`repro.harness.metrics.LatencyStats`.  These
    are the production-style pass criteria of ROADMAP item 4: the shard
    sweep prints one row per shard plus the cluster-wide aggregate.
    """
    headers = ["run", "samples", "mean (ms)", "p50 (ms)", "p99 (ms)",
               "p999 (ms)"]
    rows = []
    for label, stats in stats_by_label.items():
        rows.append([label, stats.count, round(stats.mean, 3),
                     round(stats.p50, 3), round(stats.p99, 3),
                     round(stats.p999, 3)])
    return format_table(headers, rows, title=title)


def format_slo_timeline(windows: "Sequence[Any]",
                        title: str = "SLO timeline",
                        every: int = 1) -> str:
    """Render a soak run's per-window health/SLO timeline.

    ``windows`` are :class:`repro.harness.soak.HealthWindow` rows (or any
    object with the same attributes).  ``every`` thins long timelines —
    ``every=8`` prints one row per 8 windows (violating and
    phase-boundary windows are always kept, so the interesting rows
    survive thinning).
    """
    headers = ["t (s)", "phase", "offered", "committed", "height", "vc",
               "rec", "recovering", "mempool", "drops", "p50 (ms)",
               "p99 (ms)", "p999 (ms)"]
    rows = []
    prev_phase = None
    for i, w in enumerate(windows):
        boundary = w.phase != prev_phase
        prev_phase = w.phase
        if not boundary and every > 1 and i % every:
            continue
        rows.append([
            round(w.start_ms / 1000.0, 2), w.phase, w.offered, w.committed,
            w.height, w.view_changes, w.recoveries, w.recovering,
            w.mempool_depth, w.drops, round(w.p50, 2), round(w.p99, 2),
            round(w.p999, 2),
        ])
    return format_table(headers, rows, title=title)


def format_phase_breakdown(windows: "Sequence[Any]",
                           title: str = "per-phase breakdown") -> str:
    """Aggregate a soak timeline per phase (obs-style breakdown).

    One row per phase in first-seen order: duration, offered/committed
    totals, view-change and recovery counts, worst mempool depth, drop
    total, and the worst per-window p99 seen inside the phase.
    """
    order: list[str] = []
    agg: dict[str, dict] = {}
    for w in windows:
        if w.phase not in agg:
            order.append(w.phase)
            agg[w.phase] = {"ms": 0.0, "offered": 0, "committed": 0,
                            "vc": 0, "rec": 0, "mempool": 0, "drops": 0,
                            "p99": 0.0}
        a = agg[w.phase]
        a["ms"] += w.duration_ms
        a["offered"] += w.offered
        a["committed"] += w.committed
        a["vc"] += w.view_changes
        a["rec"] += w.recoveries
        a["mempool"] = max(a["mempool"], w.mempool_depth)
        a["drops"] += w.drops
        a["p99"] = max(a["p99"], w.p99)
    headers = ["phase", "dur (s)", "offered", "committed", "vc", "rec",
               "peak mempool", "drops", "worst p99 (ms)"]
    rows = [[p, round(agg[p]["ms"] / 1000.0, 2), agg[p]["offered"],
             agg[p]["committed"], agg[p]["vc"], agg[p]["rec"],
             agg[p]["mempool"], agg[p]["drops"], round(agg[p]["p99"], 2)]
            for p in order]
    return format_table(headers, rows, title=title)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    """Render a monospace table with a title line."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


__all__ = ["format_table", "format_byz_breakdown",
           "format_network_breakdown", "format_slo_breakdown",
           "format_slo_timeline", "format_phase_breakdown"]
