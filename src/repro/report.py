"""Operator reports: post-run summaries of a LegoSDN deployment.

Renders a markdown report covering what the paper says operators need
from the failure-handling layer: who crashed, what policy was applied,
what was compromised, what the tickets say, and what the transaction
layer did to the network -- the artefact a human would attach to an
incident review.
"""

from __future__ import annotations

from typing import List, Optional


def _table(headers: List[str], rows: List[List[object]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


#: Histogram upper bounds for the report's latency tables, in ms.
_HISTOGRAM_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def _telemetry_section(telemetry) -> List[str]:
    """Per-app latency histograms + span summary, when tracing is on."""
    lines = ["## Telemetry", ""]
    recorders = [
        (name[len("app."):-len(".event_latency")], recorder)
        for name, recorder in sorted(telemetry.metrics.recorders.items())
        if name.startswith("app.") and name.endswith(".event_latency")
    ]
    if recorders:
        lines += ["### Per-app event latency (ms)", ""]
        rows = []
        for app, recorder in recorders:
            rows.append([
                app, recorder.count,
                f"{recorder.mean * 1000:.3f}",
                f"{recorder.percentile(50) * 1000:.3f}",
                f"{recorder.percentile(95) * 1000:.3f}",
                f"{recorder.percentile(99) * 1000:.3f}",
                f"{recorder.maximum * 1000:.3f}",
            ])
        lines += _table(["app", "events", "mean", "p50", "p95", "p99",
                         "max"], rows)
        lines += ["", "### Per-app latency histogram (cumulative counts)",
                  ""]
        bucket_headers = [f"<={b:g}ms" for b in _HISTOGRAM_BUCKETS_MS]
        hist_rows = []
        for app, recorder in recorders:
            counts = recorder.histogram(
                [b / 1000.0 for b in _HISTOGRAM_BUCKETS_MS])
            hist_rows.append([app] + [c for _, c in counts])
        lines += _table(["app"] + bucket_headers + ["total"], hist_rows)
        lines.append("")
    spans = telemetry.tracer.spans
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span.duration)
    if by_name:
        lines += ["### Trace spans", ""]
        lines += _table(
            ["span", "count", "mean (ms)", "max (ms)"],
            [[name, len(durations),
              f"{sum(durations) / len(durations) * 1000:.3f}",
              f"{max(durations) * 1000:.3f}"]
             for name, durations in sorted(by_name.items())],
        )
        lines.append("")
    lines.append(
        f"- flight recorder: {len(telemetry.recorder)} events retained "
        f"({telemetry.recorder.total_recorded} recorded, ring capacity "
        f"{telemetry.recorder.capacity})")
    lines.append("")
    return lines


def render_report(net, runtime, title: str = "LegoSDN deployment report",
                  window: Optional[tuple] = None) -> str:
    """Build the markdown report for a (net, LegoSDN runtime) pair."""
    controller = net.controller
    start, end = window or (0.0, net.now)
    lines = [f"# {title}", ""]

    # -- deployment --------------------------------------------------
    lines += [
        "## Deployment",
        "",
        f"- topology: `{net.topology.name}` "
        f"({len(net.switches)} switches, {len(net.hosts)} hosts)",
        f"- runtime: LegoSDN, mode `{runtime.config.mode}`, "
        f"checkpoint interval {runtime.config.checkpoint_interval}",
        f"- observation window: {start:.2f}s .. {end:.2f}s "
        f"(simulated)",
        "",
    ]

    # -- control plane health ------------------------------------------
    app_crashes = [r for r in controller.crash_records
                   if r.culprit != "operator"]
    lines += [
        "## Control plane",
        "",
        f"- controller up now: **{not controller.crashed}**",
        f"- controller uptime over window: "
        f"{controller.uptime_fraction(start, end):.2%}",
        f"- controller crashes from app bugs: {len(app_crashes)} "
        "(LegoSDN's contract: this stays 0 unless a No-Compromise "
        "invariant forced a shutdown)",
        f"- messages: {controller.messages_received} in / "
        f"{controller.messages_sent} out",
        "",
    ]

    # -- per-app accounting ----------------------------------------------
    stats = runtime.stats()
    rows = []
    live = set(runtime.live_apps())
    for name in sorted(stats):
        s = stats[name]
        rows.append([
            name,
            "up" if name in live else "DOWN",
            s["dispatched"], s["completed"], s["crashes"],
            s["recoveries"], s["skipped"], s["transformed"],
            s["byzantine"], s["deep_restores"],
        ])
    lines += ["## Applications", ""]
    lines += _table(
        ["app", "status", "dispatched", "completed", "crashes",
         "recoveries", "skipped", "transformed", "byzantine",
         "deep restores"],
        rows,
    )
    lines.append("")

    # -- transaction layer ------------------------------------------------
    manager = runtime.proxy.manager
    lines += [
        "## NetLog",
        "",
        f"- transactions committed: {manager.committed}",
        f"- transactions rolled back: {manager.aborted}",
        f"- write-ahead log records: {len(manager.wal)}",
        f"- counter-cache entries live: {len(manager.counter_cache)}",
        f"- buffer mode batches flushed/discarded: "
        f"{runtime.proxy.buffer.flushed}/{runtime.proxy.buffer.discarded}",
        "",
    ]

    # -- telemetry ------------------------------------------------------
    telemetry = getattr(runtime, "telemetry", None)
    if telemetry is not None and telemetry.enabled:
        lines += _telemetry_section(telemetry)

    # -- tickets --------------------------------------------------------------
    tickets = runtime.tickets.all()
    lines += ["## Problem tickets", ""]
    if not tickets:
        lines.append("No failures recorded.")
    else:
        lines += _table(
            ["#", "time", "app", "failure", "policy applied", "note"],
            [[t.ticket_id, f"{t.time:.2f}s", t.app_name, t.failure_kind,
              t.recovery_policy, t.recovery_note]
             for t in tickets],
        )
        lines += ["", "<details><summary>Full ticket texts</summary>", ""]
        for ticket in tickets:
            lines += ["```", ticket.render(), "```", ""]
        lines.append("</details>")
    lines.append("")
    return "\n".join(lines)


def write_report(path: str, net, runtime, **kwargs) -> str:
    """Render and write the report; returns the markdown text."""
    text = render_report(net, runtime, **kwargs)
    with open(path, "w") as fh:
        fh.write(text)
    return text
