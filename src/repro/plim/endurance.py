"""Endurance (write-wear) analysis of PLiM executions.

RRAM cells endure a bounded number of programming cycles, which is why the
paper's allocator recycles the *oldest* released cell first (FIFO): reuse is
spread across many cells instead of hammering the most recently freed one.
This module quantifies that effect from a machine's write counters so the
allocator ablation (docs/cli.md#plimc-ablate) can report concrete numbers.

Run the machine with ``width=1`` when flip counts matter: with packed
patterns a "flip" means *any* universe flipped, which overstates physical
switching.  Pulse counts (``write_counts``) are exact at any width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.plim.machine import PlimMachine
from repro.plim.program import Program


@dataclass(frozen=True)
class EnduranceReport:
    """Write-traffic summary over a set of cells."""

    num_cells: int
    cells_written: int
    total_writes: int
    max_writes: int
    mean_writes: float
    stddev_writes: float
    gini: float  # 0 = perfectly even wear, → 1 = concentrated on few cells

    def __str__(self) -> str:
        return (
            f"cells={self.num_cells} written={self.cells_written} "
            f"total={self.total_writes} max={self.max_writes} "
            f"mean={self.mean_writes:.2f} stddev={self.stddev_writes:.2f} "
            f"gini={self.gini:.3f}"
        )


def wear_report(machine: PlimMachine, cells: list[int] | None = None) -> EnduranceReport:
    """Summarize write wear, optionally restricted to ``cells``."""
    counts = machine.write_counts
    if cells is not None:
        counts = [machine.write_counts[c] for c in cells]
    return report_from_counts(counts)


def work_cell_wear(machine: PlimMachine, program: Program) -> EnduranceReport:
    """Wear over the program's *work* cells only (the paper's #R set)."""
    return wear_report(machine, program.work_cells)


def report_from_counts(counts: list[int]) -> EnduranceReport:
    """Build an :class:`EnduranceReport` from raw per-cell write counts."""
    n = len(counts)
    total = sum(counts)
    written = sum(1 for c in counts if c)
    if n == 0 or total == 0:
        return EnduranceReport(n, written, total, 0, 0.0, 0.0, 0.0)
    mean = total / n
    variance = sum((c - mean) ** 2 for c in counts) / n
    return EnduranceReport(
        num_cells=n,
        cells_written=written,
        total_writes=total,
        max_writes=max(counts),
        mean_writes=mean,
        stddev_writes=math.sqrt(variance),
        gini=_gini(counts),
    )


def _gini(counts: list[int]) -> float:
    """Gini coefficient of a non-negative distribution (0 = even)."""
    n = len(counts)
    total = sum(counts)
    if n == 0 or total == 0:
        return 0.0
    ordered = sorted(counts)
    cumulative = 0
    weighted = 0
    for i, value in enumerate(ordered, start=1):
        cumulative += value
        weighted += cumulative
    # Standard formula: G = (n + 1 - 2 * sum(cum_i) / total) / n
    return max(0.0, (n + 1 - 2 * weighted / total) / n)
