"""Span-diff: compare two traces segment by segment.

The perf-PR workflow: capture an ``appvisor.event`` span breakdown
before a change and after it, then diff the two so the report says
*which* hot-path segment moved -- dispatch (``controller.dispatch``),
RPC (``appvisor.rpc``), checkpoint (``appvisor.checkpoint``), or
NetLog commit (``netlog.txn``) -- instead of one opaque total.

Consumed two ways:

- ``repro trace diff A.json B.json`` (and ``benchmarks/span_diff.py``)
  render the human table;
- CI feeds a freshly captured trace and a committed baseline
  (``BENCH_PR8.json``) into :func:`check_regression` and fails the
  build when the median ``appvisor.event`` duration regresses.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.metrics.collector import rounded_index_percentile

#: The control-loop segments a perf PR is expected to report on.
HOT_PATH_SPANS = (
    "appvisor.event",
    "controller.dispatch",
    "appvisor.rpc",
    "appvisor.checkpoint",
    "crashpad.encode",
    "netlog.txn",
)


def load_summary(path: str, which: str = "current") -> Dict[str, dict]:
    """The per-span summary stored in a span-diff capture file."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "summaries" in doc:
        try:
            return doc["summaries"][which]
        except KeyError:
            raise ValueError(
                f"{path} has no {which!r} summary "
                f"(has: {sorted(doc['summaries'])})") from None
    # A raw trace also works: summarise it on the fly.
    if isinstance(doc, dict) and "spans" in doc:
        return summarize_spans(doc["spans"])
    if isinstance(doc, list):
        return summarize_spans(doc)
    raise ValueError(f"{path} has neither summaries nor spans")


def summarize_spans(spans: Iterable[dict],
                    names: Optional[Sequence[str]] = None) -> Dict[str, dict]:
    """Per-name duration statistics over span dicts.

    ``names`` restricts (and orders) the output; by default every name
    present is summarised.  Durations are simulated seconds.
    """
    by_name: Dict[str, List[float]] = {}
    for span in spans:
        duration = span.get("duration")
        if duration is None:
            continue
        by_name.setdefault(span.get("name", "?"), []).append(duration)
    if names is None:
        names = sorted(by_name)
    summary: Dict[str, dict] = {}
    for name in names:
        durations = sorted(by_name.get(name, ()))
        if not durations:
            continue
        summary[name] = {
            "count": len(durations),
            "total": sum(durations),
            "mean": sum(durations) / len(durations),
            "median": rounded_index_percentile(durations, 50),
            "p95": rounded_index_percentile(durations, 95),
            "max": durations[-1],
        }
    return summary


def diff_summaries(base: Dict[str, dict],
                   cand: Dict[str, dict]) -> Dict[str, dict]:
    """Per-span-name deltas between two summaries.

    ``ratio`` is candidate/baseline median (< 1 means faster); spans
    present on only one side get ``None`` for the missing figures.
    """
    diff: Dict[str, dict] = {}
    for name in sorted(set(base) | set(cand)):
        b, c = base.get(name), cand.get(name)
        entry = {
            "base_count": b["count"] if b else 0,
            "cand_count": c["count"] if c else 0,
            "base_median": b["median"] if b else None,
            "cand_median": c["median"] if c else None,
            "base_total": b["total"] if b else None,
            "cand_total": c["total"] if c else None,
            "median_delta": None,
            "median_ratio": None,
        }
        if b and c:
            entry["median_delta"] = c["median"] - b["median"]
            if b["median"] > 0:
                entry["median_ratio"] = c["median"] / b["median"]
        diff[name] = entry
    return diff


def render_diff(diff: Dict[str, dict],
                base_label: str = "baseline",
                cand_label: str = "candidate") -> str:
    """The diff as a fixed-width table (medians in ms)."""
    headers = ["span", "n", f"{base_label} (ms)", f"{cand_label} (ms)",
               "delta (ms)", "ratio"]
    rows = []
    for name, entry in diff.items():
        def fmt(value, scale=1000.0, digits=3):
            return "-" if value is None else f"{value * scale:.{digits}f}"
        ratio = entry["median_ratio"]
        rows.append([
            name,
            f"{entry['base_count']}/{entry['cand_count']}",
            fmt(entry["base_median"]),
            fmt(entry["cand_median"]),
            fmt(entry["median_delta"]),
            "-" if ratio is None else f"{ratio:.2f}x",
        ])
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def check_regression(base: Dict[str, dict], cand: Dict[str, dict],
                     span: str = "appvisor.event",
                     threshold: float = 0.20) -> tuple:
    """Gate: has ``span``'s median regressed more than ``threshold``?

    Returns ``(ok, message)``.  A span missing from either side fails
    the check -- silently losing the instrumented segment is itself a
    regression of the harness.
    """
    b, c = base.get(span), cand.get(span)
    if b is None or c is None:
        missing = "baseline" if b is None else "candidate"
        return False, f"span {span!r} missing from the {missing} summary"
    if b["median"] <= 0:
        return True, f"{span}: baseline median is 0; nothing to regress"
    ratio = c["median"] / b["median"]
    message = (f"{span}: median {b['median'] * 1000:.3f} ms -> "
               f"{c['median'] * 1000:.3f} ms ({ratio:.2f}x, "
               f"threshold {1 + threshold:.2f}x)")
    return ratio <= 1.0 + threshold, message
