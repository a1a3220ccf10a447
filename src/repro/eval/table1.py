"""Reproduction of the paper's Table 1 (experimental evaluation).

For every benchmark, three configurations are measured exactly as in the
paper:

1. **naïve** — child-order translation in as-given index order on the
   initial non-optimized MIG;
2. **MIG rewriting** — the same naïve translation after Algorithm 1
   (effort 4, like the paper's experiments);
3. **rewriting and compilation** — Algorithm 1 followed by the full
   Algorithm 2 compiler.

Improvements are reported against the naïve columns, as in the paper.  Two
harness options deviate-by-default and are reported explicitly:

* ``paper_accounting=True`` leaves complemented outputs in place (the
  paper's convention); ``False`` charges 2 instructions per inverted
  output.
* ``shuffled=True`` first permutes each MIG into a random topological
  order, emulating the locality-free gate order of netlist files (our
  generators' creation order is already depth-first, which makes the naïve
  baseline's RRAM usage far better than the paper's — see
  docs/architecture.md#reproduction-status-of-the-circuits).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.circuits.registry import BENCHMARK_NAMES, benchmark_info
from repro.core.batch import parallel_imap
from repro.core.cache import SynthesisCache
from repro.core.resilience import TaskFailure, TaskPolicy
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.pipeline import plim_rewrite_options
from repro.core.rewriting import rewrite_for_plim
from repro.eval.reporting import format_table, improvement, to_csv
from repro.mig.context import AnalysisContext
from repro.mig.graph import Mig
from repro.mig.reorder import shuffle_topological


@dataclass(frozen=True)
class Table1Row:
    """Measured numbers for one benchmark (one row of Table 1)."""

    name: str
    pi: int
    po: int
    naive_n: int
    naive_i: int
    naive_r: int
    rewr_n: int
    rewr_i: int
    rewr_r: int
    full_i: int
    full_r: int
    #: MIG depth before/after rewriting (not a paper column — depth is what
    #: parallel in-memory targets care about; serial PLiM only needs #N)
    naive_d: int = 0
    rewr_d: int = 0
    seconds: float = 0.0

    @property
    def rewr_i_impr(self) -> float:
        return improvement(self.naive_i, self.rewr_i)

    @property
    def rewr_r_impr(self) -> float:
        return improvement(self.naive_r, self.rewr_r)

    @property
    def full_i_impr(self) -> float:
        return improvement(self.naive_i, self.full_i)

    @property
    def full_r_impr(self) -> float:
        return improvement(self.naive_r, self.full_r)


@dataclass
class Table1Result:
    """All rows plus the Σ row of the reproduction run.

    ``failures`` lists the benchmarks whose row task failed permanently
    under a skip/degrade :class:`~repro.core.resilience.TaskPolicy`
    (``(name, TaskFailure)`` pairs); their rows are absent from ``rows``
    and the Σ row covers the surviving benchmarks only.
    """

    rows: list[Table1Row]
    scale: str
    effort: int
    shuffled: bool
    paper_accounting: bool
    failures: list = field(default_factory=list)

    def total(self) -> Table1Row:
        def s(attr):
            return sum(getattr(r, attr) for r in self.rows)

        return Table1Row(
            name="SUM",
            pi=s("pi"),
            po=s("po"),
            naive_n=s("naive_n"),
            naive_i=s("naive_i"),
            naive_r=s("naive_r"),
            rewr_n=s("rewr_n"),
            rewr_i=s("rewr_i"),
            rewr_r=s("rewr_r"),
            full_i=s("full_i"),
            full_r=s("full_r"),
            # depth is not additive across circuits; the Σ row reports the
            # deepest circuit (rendered specially by the formatters)
            naive_d=max((r.naive_d for r in self.rows), default=0),
            rewr_d=max((r.rewr_d for r in self.rows), default=0),
            seconds=s("seconds"),
        )


def measure_mig(
    mig: Mig,
    name: str,
    *,
    effort: int = 4,
    paper_accounting: bool = True,
    cache: Optional[SynthesisCache] = None,
) -> Table1Row:
    """Run the three Table 1 configurations on one MIG.

    ``cache`` memoizes the rewriting step (the row's dominant cost) under
    the MIG's fingerprint, so repeated table runs of one circuit family
    reuse it.
    """
    start = time.perf_counter()
    fix = not paper_accounting
    naive_opts = CompilerOptions.naive(fix_output_polarity=fix)
    full_opts = CompilerOptions(fix_output_polarity=fix)

    # One context per graph: the naive compile and the #N measurement share
    # the cleanup; the two compiles of the rewritten MIG share all analyses.
    context = AnalysisContext(mig)
    naive_prog = PlimCompiler(naive_opts).compile(mig, context=context)
    clean = context.cleaned().mig

    rewritten = rewrite_for_plim(
        mig,
        plim_rewrite_options(fix, effort=effort),
        cache=cache,
    )
    rewritten_context = AnalysisContext(rewritten)
    rewr_prog = PlimCompiler(naive_opts).compile(rewritten, context=rewritten_context)
    full_prog = PlimCompiler(full_opts).compile(rewritten, context=rewritten_context)

    return Table1Row(
        name=name,
        pi=mig.num_pis,
        po=mig.num_pos,
        naive_n=clean.num_gates,
        naive_i=naive_prog.num_instructions,
        naive_r=naive_prog.num_rrams,
        rewr_n=rewritten.num_gates,
        rewr_i=rewr_prog.num_instructions,
        rewr_r=rewr_prog.num_rrams,
        full_i=full_prog.num_instructions,
        full_r=full_prog.num_rrams,
        naive_d=context.cleaned().depth,
        rewr_d=rewritten_context.depth,
        seconds=time.perf_counter() - start,
    )


def run_benchmark(
    name: str,
    scale: str = "default",
    *,
    effort: int = 4,
    shuffled: bool = False,
    paper_accounting: bool = True,
    cache: Optional[SynthesisCache] = None,
) -> Table1Row:
    """Build one EPFL benchmark and measure its Table 1 row.

    ``shuffled=True`` disables the cache for the row: the fingerprint is
    deliberately creation-order invariant, so a shuffled build shares its
    cache key with the as-built one — a hit would silently substitute the
    as-built rewriting results and void the very order-sensitivity the
    flag exists to measure.
    """
    mig = benchmark_info(name).build(scale)
    if shuffled:
        mig = shuffle_topological(mig, seed=42)
        cache = None
    return measure_mig(
        mig,
        name,
        effort=effort,
        paper_accounting=paper_accounting,
        cache=cache,
    )


def _benchmark_task(payload, cache=None):
    """Module-level task so the table can fan out over a process pool."""
    name, scale, effort, shuffled, paper_accounting = payload
    return run_benchmark(
        name,
        scale,
        effort=effort,
        shuffled=shuffled,
        paper_accounting=paper_accounting,
        cache=cache,
    )


def run_table1(
    names: Optional[Sequence[str]] = None,
    scale: str = "default",
    *,
    effort: int = 4,
    shuffled: bool = False,
    paper_accounting: bool = True,
    progress=None,
    workers: Optional[int] = None,
    cache: Optional[SynthesisCache] = None,
    policy: Optional[TaskPolicy] = None,
) -> Table1Result:
    """Run the full Table 1 reproduction.

    ``progress`` is an optional callback ``(name, row)`` invoked per
    benchmark as its row completes — live row-by-row output for any
    worker count (the pooled path streams ordered results through
    :func:`~repro.core.batch.parallel_imap`).  ``workers`` fans the
    benchmarks out over a process pool (``None``, the default, means one
    per CPU — the package-wide convention); row order is deterministic
    regardless.  ``cache`` attaches a :class:`~repro.core.cache.SynthesisCache`
    memoizing each row's rewriting step (shared with pool workers by
    :func:`~repro.core.batch.parallel_imap`; ignored for
    ``shuffled=True`` runs, whose whole point is order sensitivity that
    the order-invariant fingerprint would cache away).

    ``policy`` is an optional :class:`~repro.core.resilience.TaskPolicy`;
    under ``on_error="skip"`` (or a ``"degrade"`` whose inline re-run also
    fails) the failed benchmark's row is dropped and recorded on
    :attr:`Table1Result.failures` while the remaining rows complete.
    """
    selected = list(names) if names is not None else list(BENCHMARK_NAMES)
    payloads = [
        (name, scale, effort, shuffled, paper_accounting) for name in selected
    ]
    rows = []
    failures = []
    results = parallel_imap(
        _benchmark_task, payloads, workers=workers, cache=cache, policy=policy
    )
    for name, outcome in zip(selected, results):
        if isinstance(outcome, TaskFailure):
            failures.append((name, outcome))
            continue
        rows.append(outcome)
        if progress is not None:
            progress(name, outcome)
    return Table1Result(
        rows=rows,
        scale=scale,
        effort=effort,
        shuffled=shuffled,
        paper_accounting=paper_accounting,
        failures=failures,
    )


_HEADERS = [
    "Benchmark", "PI/PO",
    "#N", "#D", "#I", "#R",
    "#N'", "#D'", "#I'", "I impr.", "#R'", "R impr.",
    "#I''", "I impr.", "#R''", "R impr.",
]


def _row_cells(row: Table1Row) -> list:
    return [
        row.name,
        f"{row.pi}/{row.po}",
        row.naive_n, row.naive_d, row.naive_i, row.naive_r,
        row.rewr_n, row.rewr_d, row.rewr_i, f"{row.rewr_i_impr:.2f}%",
        row.rewr_r, f"{row.rewr_r_impr:.2f}%",
        row.full_i, f"{row.full_i_impr:.2f}%",
        row.full_r, f"{row.full_r_impr:.2f}%",
    ]


def _sum_cells(total: Table1Row) -> list:
    """Σ-row cells: depth columns show ``max <d>`` (depth is not additive)."""
    cells = _row_cells(total)
    cells[3] = f"max {total.naive_d}"
    cells[7] = f"max {total.rewr_d}"
    return cells


#: the paper's published Table 1 Σ improvements vs naive, in percent —
#: rewriting #I and #R, then rewriting+compilation #I and #R — with
#: :func:`~repro.eval.reporting.improvement`'s sign: positive = fewer
PAPER_TOTAL_IMPROVEMENTS = (20.09, 14.83, 19.95, 61.40)


def _totals_line(label: str, improvements: Sequence[float]) -> str:
    """One footer line of Σ improvements, signed like the table's columns."""
    i, r, full_i, full_r = improvements
    return (
        f"{label:<26}rewriting  I {i:+.2f}%  R {r:+.2f}%   "
        f"rewriting+compilation  I {full_i:+.2f}%  R {full_r:+.2f}%"
    )


def format_table1(result: Table1Result, with_paper: bool = True) -> str:
    """Paper-layout rendering of the reproduction, plus the paper deltas."""
    rows = [_row_cells(r) for r in result.rows]
    rows.append(_sum_cells(result.total()))
    table = format_table(_HEADERS, rows)
    header = (
        f"Table 1 reproduction — scale={result.scale}, effort={result.effort}, "
        f"order={'shuffled' if result.shuffled else 'as-built'}, "
        f"accounting={'paper' if result.paper_accounting else 'honest'}\n"
        "(naive | MIG rewriting | rewriting and compilation; improvements vs naive)\n"
    )
    text = header + table
    if with_paper:
        total = result.total()
        text += "\n\n" + _totals_line("Paper Table 1 totals:", PAPER_TOTAL_IMPROVEMENTS)
        text += "\n" + _totals_line(
            "This run:",
            (total.rewr_i_impr, total.rewr_r_impr, total.full_i_impr, total.full_r_impr),
        )
    return text


def table1_csv(result: Table1Result) -> str:
    """CSV export of the reproduction rows (plus the Σ row)."""
    rows = [_row_cells(r) for r in result.rows]
    rows.append(_sum_cells(result.total()))
    return to_csv(_HEADERS, rows)


def paper_rows_table(names: Optional[Sequence[str]] = None) -> str:
    """The paper's own Table 1 numbers, for side-by-side comparison."""
    rows = []
    for name in names if names is not None else BENCHMARK_NAMES:
        p = benchmark_info(name).paper
        rows.append([
            name, f"{p.pi}/{p.po}",
            p.naive_n, "-", p.naive_i, p.naive_r,
            p.rewr_n, "-", p.rewr_i, f"{improvement(p.naive_i, p.rewr_i):.2f}%",
            p.rewr_r, f"{improvement(p.naive_r, p.rewr_r):.2f}%",
            p.full_i, f"{improvement(p.naive_i, p.full_i):.2f}%",
            p.full_r, f"{improvement(p.naive_r, p.full_r):.2f}%",
        ])
    return format_table(_HEADERS, rows)
