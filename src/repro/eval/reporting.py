"""Small text-report helpers shared by the evaluation harness and CLI."""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence


def improvement(baseline: float, value: float) -> float:
    """Relative improvement in percent (positive = better than baseline).

    Matches the paper's Table 1 convention: ``(1 - value/baseline) * 100``.
    """
    if baseline == 0:
        return 0.0
    return (1.0 - value / baseline) * 100.0


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    align_left: Sequence[int] = (0,),
) -> str:
    """Fixed-width ASCII table; columns in ``align_left`` left-justified."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if i in align_left:
                parts.append(cell.ljust(widths[i]))
            else:
                parts.append(cell.rjust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rendered)
    return "\n".join(lines)


def to_csv(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV rendering of a report table."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()
