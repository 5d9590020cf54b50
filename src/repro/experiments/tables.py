"""ASCII table renderers for the benchmark harnesses.

Every benchmark prints its reproduced table/figure rows through these
helpers so the output format is uniform and diff-able.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["format_table", "speedup_table", "series_preview"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    float_fmt: str = "{:.3f}",
) -> str:
    """Render a fixed-width ASCII table.

    Floats go through ``float_fmt``; everything else through ``str``.
    """
    def render(cell: object) -> str:
        if isinstance(cell, float) and not isinstance(cell, bool):
            return float_fmt.format(cell)
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rendered)) if rendered else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rendered:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def speedup_table(
    total_times: Dict[str, float],
    baseline: str = "vanilla",
    title: Optional[str] = None,
) -> str:
    """Training-time bar-chart data as a table with speedups vs a baseline."""
    if baseline not in total_times:
        raise KeyError(
            f"baseline {baseline!r} missing from results {sorted(total_times)}"
        )
    base = total_times[baseline]
    rows = [
        [name, t, base / t if t > 0 else float("inf")]
        for name, t in total_times.items()
    ]
    return format_table(
        ["policy", "total time [s]", f"speedup vs {baseline}"],
        rows,
        title=title,
    )


def series_preview(
    xs: np.ndarray, ys: np.ndarray, points: int = 8, label: str = "series"
) -> str:
    """Down-sample an (x, y) curve to a printable row of anchor points."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.size == 0:
        return f"{label}: (empty)"
    idx = np.unique(np.linspace(0, xs.size - 1, min(points, xs.size)).astype(int))
    pairs = ", ".join(f"({xs[i]:.0f}, {ys[i]:.3f})" for i in idx)
    return f"{label}: {pairs}"
