"""Summarize a JSONL trace: ``python -m repro.cli report <trace.jsonl>``.

Reads a trace written via ``--trace-out`` (validated against the schema
first -- a malformed file is an error, never a half-summary) and prints:

* per-phase/per-span latency: count, total, p50, p95 (exact
  nearest-rank percentiles over the recorded span durations);
* wire traffic by frame type: frames and bytes in each direction, plus
  bytes/round when round spans are present, and how the BROADCAST
  frames left (freshly encoded / cached frame reused / header-only
  alias);
* a worker table: per-worker busy seconds, utilization against the
  trace's wall-clock extent, and lifecycle counts (lost / resumed /
  retired).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.trace import load_trace, validate_trace_file

__all__ = ["summarize_trace", "render_report", "report_main"]


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize_trace(path: str) -> Dict[str, Any]:
    """Load + validate ``path`` and compute the report's data model."""
    meta, events = load_trace(path)
    spans = [e for e in events if e["kind"] == "span"]
    metrics = [e for e in events if e["kind"] == "metric"]

    # -- per-span-name latency ----------------------------------------
    by_name: Dict[str, List[float]] = {}
    rounds = set()
    for s in spans:
        by_name.setdefault(s["name"], []).append(float(s["dur"]))
        r = s.get("attrs", {}).get("round")
        if isinstance(r, int):
            rounds.add(r)
    phases = {}
    for name in sorted(by_name):
        durs = sorted(by_name[name])
        phases[name] = {
            "count": len(durs),
            "total_s": sum(durs),
            "p50_s": _percentile(durs, 0.50),
            "p95_s": _percentile(durs, 0.95),
        }

    # -- wire traffic by frame type -----------------------------------
    # Counters are cumulative; a trace may carry several flushes, so the
    # last value per (name, labels) wins.
    latest: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], Any] = {}
    for m in metrics:
        latest[(m["name"], tuple(sorted(m["labels"].items())))] = m["value"]
    wire: Dict[str, Dict[str, float]] = {}
    broadcast_forms: Dict[str, float] = {}
    other_counters: Dict[str, float] = {}
    worker_busy: Dict[str, float] = {}
    for (name, labels), value in sorted(latest.items()):
        label_map = dict(labels)
        if name in ("wire.bytes_sent", "wire.bytes_received") or name in (
            "wire.frames_sent",
            "wire.frames_received",
        ):
            msg_type = str(label_map.get("msg_type", "?"))
            entry = wire.setdefault(
                msg_type,
                {
                    "frames_sent": 0.0,
                    "frames_received": 0.0,
                    "bytes_sent": 0.0,
                    "bytes_received": 0.0,
                },
            )
            entry[name.split(".", 1)[1]] = float(value)
        elif name.startswith("wire.broadcast_"):
            broadcast_forms[name[len("wire.broadcast_"):]] = float(value)
        elif name == "distributed.worker.busy_s":
            worker_busy[str(label_map.get("worker", "?"))] = float(value)
        elif isinstance(value, (int, float)):
            key = name if not label_map else (
                name
                + "{"
                + ",".join(f"{k}={v}" for k, v in sorted(label_map.items()))
                + "}"
            )
            other_counters[key] = float(value)

    # -- wall extent + worker utilization ------------------------------
    wall_s = 0.0
    if spans:
        t0 = min(float(s["ts"]) for s in spans)
        t1 = max(float(s["ts"]) + float(s["dur"]) for s in spans)
        wall_s = max(0.0, t1 - t0)
    workers = {
        worker: {
            "busy_s": busy,
            "utilization": (busy / wall_s) if wall_s > 0 else 0.0,
        }
        for worker, busy in sorted(worker_busy.items())
    }

    num_rounds = len(rounds)
    bytes_per_round = None
    if num_rounds:
        total_sent = sum(e["bytes_sent"] for e in wire.values())
        total_recv = sum(e["bytes_received"] for e in wire.values())
        bytes_per_round = {
            "sent": total_sent / num_rounds,
            "received": total_recv / num_rounds,
        }

    return {
        "meta": meta,
        "phases": phases,
        "wire": wire,
        "broadcast_forms": broadcast_forms,
        "bytes_per_round": bytes_per_round,
        "workers": workers,
        "counters": other_counters,
        "rounds": num_rounds,
        "wall_s": wall_s,
        "num_spans": len(spans),
        "num_metrics": len(metrics),
    }


def _table(
    headers: List[str], rows: List[List[str]], indent: str = "  "
) -> List[str]:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        indent + "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        indent + "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            indent + "  ".join(c.ljust(w) for c, w in zip(row, widths))
        )
    return lines


def _fmt_s(v: float) -> str:
    if v >= 1.0:
        return f"{v:.3f}s"
    return f"{v * 1e3:.2f}ms"


def render_report(summary: Dict[str, Any]) -> str:
    """Render :func:`summarize_trace` output as a plain-text report."""
    out: List[str] = []
    meta = summary["meta"]
    out.append("trace summary")
    out.append(
        f"  git_sha={meta.get('git_sha', '?')} "
        f"config_digest={meta.get('config_digest')} "
        f"timestamp={meta.get('timestamp_utc', '?')}"
    )
    out.append(
        f"  spans={summary['num_spans']} metrics={summary['num_metrics']} "
        f"rounds={summary['rounds']} wall={_fmt_s(summary['wall_s'])}"
    )

    if summary["phases"]:
        out.append("")
        out.append("per-phase latency")
        rows = [
            [
                name,
                str(stats["count"]),
                _fmt_s(stats["total_s"]),
                _fmt_s(stats["p50_s"]),
                _fmt_s(stats["p95_s"]),
            ]
            for name, stats in summary["phases"].items()
        ]
        out.extend(_table(["span", "count", "total", "p50", "p95"], rows))

    if summary["wire"]:
        out.append("")
        title = "wire traffic by frame type"
        if summary["bytes_per_round"]:
            bpr = summary["bytes_per_round"]
            title += (
                f" (per round: {bpr['sent']:.0f} B out, "
                f"{bpr['received']:.0f} B in)"
            )
        out.append(title)
        rows = [
            [
                msg_type,
                f"{e['frames_sent']:.0f}",
                f"{e['bytes_sent']:.0f}",
                f"{e['frames_received']:.0f}",
                f"{e['bytes_received']:.0f}",
            ]
            for msg_type, e in summary["wire"].items()
        ]
        out.extend(
            _table(
                ["frame", "frames_out", "bytes_out", "frames_in", "bytes_in"],
                rows,
            )
        )
        forms = summary["broadcast_forms"]
        if forms:
            out.append(
                "  BROADCAST by form: "
                f"{forms.get('encodes', 0):.0f} encoded, "
                f"{forms.get('frames_reused', 0):.0f} cached frame reused, "
                f"{forms.get('aliases', 0):.0f} header-only alias"
            )

    if summary["workers"]:
        out.append("")
        out.append("worker utilization")
        rows = [
            [
                worker,
                _fmt_s(stats["busy_s"]),
                f"{stats['utilization'] * 100:.1f}%",
            ]
            for worker, stats in summary["workers"].items()
        ]
        out.extend(_table(["worker", "busy", "utilization"], rows))

    if summary["counters"]:
        out.append("")
        out.append("counters/gauges")
        for key, value in summary["counters"].items():
            rendered = f"{value:.6g}" if value != int(value) else str(int(value))
            out.append(f"  {key} = {rendered}")

    return "\n".join(out)


def report_main(path: str, validate_only: bool = False) -> Optional[str]:
    """Entry point behind ``repro.cli report``.

    Validates first (raising ``ValueError`` on schema violations); with
    ``validate_only`` returns a one-line confirmation instead of the
    full report.
    """
    counts = validate_trace_file(path)
    if validate_only:
        return (
            f"{path}: valid trace "
            f"({counts['span']} spans, {counts['metric']} metrics)"
        )
    return render_report(summarize_trace(path))
