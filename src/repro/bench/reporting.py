"""Plain-text tables and series for benchmark output.

The paper's evaluation is figures; a terminal harness reports the same
content as aligned tables plus a crude ASCII sparkline so the shape (who
wins, by what factor, where the curve bends) is visible in CI logs.
"""

from __future__ import annotations

from collections.abc import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str | None = None) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(
            " | ".join(
                c.rjust(w) if _is_numeric(c) else c.ljust(w)
                for c, w in zip(row, widths)
            )
        )
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def _is_numeric(text: str) -> bool:
    try:
        float(text.replace(",", ""))
        return True
    except ValueError:
        return False


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """One-line bar chart (relative magnitudes)."""
    if not values:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    top = max(values) or 1.0
    return "".join(blocks[min(8, int(round(8 * v / top)))] for v in values)

