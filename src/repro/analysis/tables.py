"""ASCII report rendering for benchmark output.

Every benchmark prints the rows/series the corresponding paper table or
figure reports; these helpers keep that output aligned and readable in a
terminal (no plotting dependencies are available offline).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


def format_value(value) -> str:
    """Human-friendly cell formatting."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000:
            return f"{value:,.0f}"
        if magnitude >= 1:
            return f"{value:.2f}"
        return f"{value:.3g}"
    return str(value)


def render_table(
    rows: Sequence[Dict],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(columns) if columns else list(rows[0].keys())
    cells = [[format_value(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_series(
    points: Sequence[Dict],
    x: str,
    y: str,
    title: Optional[str] = None,
    width: int = 50,
) -> str:
    """Render an (x, y) series as an ASCII bar chart (one bar per point)."""
    if not points:
        return f"{title}\n(no points)" if title else "(no points)"
    values = [float(p[y]) for p in points]
    peak = max((v for v in values if math.isfinite(v)), default=0.0)
    lines = []
    if title:
        lines.append(title)
    label_width = max(len(format_value(p[x])) for p in points)
    for point, value in zip(points, values):
        bar = (
            "#" * max(0, int(round(width * value / peak))) if peak > 0 else ""
        )
        lines.append(
            f"{format_value(point[x]).rjust(label_width)} | "
            f"{bar} {format_value(value)}"
        )
    return "\n".join(lines)


def improvement_summary(metric_by_system: Dict[str, float]) -> List[Dict]:
    """Rows of system, metric, and 'x over best' factors, best first,
    for a lower-is-better metric (JCT, makespan)."""
    if not metric_by_system:
        return []
    reference = min(metric_by_system.values())
    rows = []
    for system, value in sorted(
        metric_by_system.items(), key=lambda kv: kv[1]
    ):
        factor = value / reference if reference > 0 else math.nan
        rows.append(
            {"system": system, "value": value, "vs_best": factor}
        )
    return rows
