"""Plain-text reporting for the examples.

The examples print paper tables and figures as text: tables as
aligned columns, figures as their underlying (x, y) series — enough to
compare shapes and crossovers against the paper without a plotting
dependency.
"""

from __future__ import annotations


def format_table(headers, rows, title: str | None = None) -> str:
    """Render rows as an aligned monospace table."""
    headers = [str(h) for h in headers]
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_curve(name: str, points, fields=("requested", "bitrate", "estimated", "actual")) -> str:
    """Render a list of RDPoint-like objects as one labelled series."""
    headers = list(fields)
    rows = [[getattr(p, f) for f in headers] for p in points]
    return format_table(headers, rows, title=f"== {name} ==")


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1e4 or abs(cell) < 1e-3:
            return f"{cell:.3e}"
        return f"{cell:.4f}"
    return str(cell)
