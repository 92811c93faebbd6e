"""Plain-text table formatting for measurement output.

Trace summaries and labeling-work comparisons print as aligned
plain-text tables (one row per item, one column per measurement).
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table"]


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render *rows* (dicts) as an aligned text table.

    Columns default to the keys of the first row, in order.  Numeric
    cells are right-aligned and thousands-separated.
    """
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[_cell(row.get(col, "")) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered)) for i, col in enumerate(cols)
    ]

    def align(text: str, width: int, value: object) -> str:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return text.rjust(width)
        return text.ljust(width)

    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for row, line in zip(rows, rendered):
        lines.append(
            "  ".join(align(line[i], widths[i], row.get(col)) for i, col in enumerate(cols))
        )
    return "\n".join(lines)
