"""Ablation studies behind ``plimc ablate`` (docs/cli.md#plimc-ablate).

* :func:`effort_sweep` — rewriting effort (Algorithm 1 cycles) vs. cost.
* :func:`objective_ablation` — size vs. depth rewriting objectives
  (the #N/#D/#I/#R trade-off).
* :func:`format_pareto_front` — X7, the full (#N, #D) frontier of the
  depth-budgeted sweep (:func:`repro.core.pareto.pareto_sweep`), in both
  MIG and PLiM terms.
* :func:`selection_ablation` — scheduling/translation rule combinations on
  as-built vs. shuffled gate order.
* :func:`allocator_ablation` — FIFO vs. LIFO vs. FRESH allocation and the
  endurance (write-wear) consequences, executed on the machine model.
* :func:`polarity_ablation` — paper vs. honest output-polarity accounting.
* :func:`format_cost_loop_ablation` — #N-guided vs. cost-model-guided
  rewriting: does closing the synthesis↔scheduling loop
  (:func:`repro.core.rewriting.compile_cost_loop`) beat the size-optimal
  MIG in real #I?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.circuits.registry import benchmark_info
from repro.core.batch import parallel_map
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.cost import CompiledPlim
from repro.core.pareto import ParetoFront, pareto_sweep
from repro.core.pipeline import plim_rewrite_options
from repro.core.rewriting import (
    CostLoopResult,
    RewriteOptions,
    compile_cost_loop,
    rewrite_for_plim,
)
from repro.eval.reporting import format_table
from repro.mig.analysis import depth as analysis_depth
from repro.mig.context import AnalysisContext
from repro.mig.graph import Mig
from repro.mig.reorder import shuffle_topological
from repro.plim.endurance import EnduranceReport


# ----------------------------------------------------------------------
# X1: rewriting effort sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EffortPoint:
    effort: int
    num_gates: int
    instructions: int
    rrams: int
    depth: int = 0


def effort_sweep(
    mig: Mig, efforts: Sequence[int] = (0, 1, 2, 4, 8)
) -> list[EffortPoint]:
    """Compile ``mig`` after each rewriting effort level."""
    compiler = PlimCompiler(CompilerOptions(fix_output_polarity=False))
    points = []
    for effort in efforts:
        rewritten = (
            mig
            if effort == 0
            else rewrite_for_plim(mig, RewriteOptions(effort=effort, early_exit=False))
        )
        program = compiler.compile(rewritten)
        points.append(
            EffortPoint(
                effort=effort,
                num_gates=rewritten.num_gates,
                instructions=program.num_instructions,
                rrams=program.num_rrams,
                depth=analysis_depth(rewritten),
            )
        )
    return points


def format_effort_sweep(name: str, points: Sequence[EffortPoint]) -> str:
    rows = [[p.effort, p.num_gates, p.depth, p.instructions, p.rrams] for p in points]
    return f"Effort sweep — {name}\n" + format_table(
        ["effort", "#N", "#D", "#I", "#R"], rows
    )


# ----------------------------------------------------------------------
# X6: rewriting objective (size vs depth)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectivePoint:
    objective: str
    num_gates: int
    depth: int
    instructions: int
    rrams: int


def objective_ablation(mig: Mig, rewrite_effort: int = 4) -> list[ObjectivePoint]:
    """Compile under each rewriting objective and record #N/#D/#I/#R.

    ``size`` is the paper's Algorithm 1 (serial PLiM programs only care
    about node count); ``depth`` optimizes the critical path for parallel
    in-memory targets.
    """
    compiler = PlimCompiler(CompilerOptions(fix_output_polarity=False))
    points = []
    for objective in ("size", "depth"):
        rewritten = rewrite_for_plim(
            mig,
            RewriteOptions(effort=rewrite_effort, objective=objective),
        )
        program = compiler.compile(rewritten)
        points.append(
            ObjectivePoint(
                objective=objective,
                num_gates=rewritten.num_gates,
                depth=analysis_depth(rewritten),
                instructions=program.num_instructions,
                rrams=program.num_rrams,
            )
        )
    return points


def format_objective_ablation(name: str, points: Sequence[ObjectivePoint]) -> str:
    rows = [
        [p.objective, p.num_gates, p.depth, p.instructions, p.rrams] for p in points
    ]
    return f"Rewriting-objective ablation — {name}\n" + format_table(
        ["objective", "#N", "#D", "#I", "#R"], rows
    )


# ----------------------------------------------------------------------
# X7: (#N, #D) Pareto frontier
# ----------------------------------------------------------------------


#: axis name → table-header shorthand for :func:`format_pareto_front`
_AXIS_LABELS = {
    "num_gates": "#N",
    "depth": "#D",
    "num_instructions": "#I",
    "num_rrams": "#R",
    "cycles": "cycles",
    "wear": "wear",
}


def format_pareto_front(name: str, front: ParetoFront) -> str:
    """Render a :class:`ParetoFront` in the ablation table layout.

    Frontier points first (ascending #D), then the dominated candidates
    the sweep explored, marked in the ``front`` column.  The header names
    the sweep's axes; when an executed axis (``cycles``/``wear``) is
    swept, its measured column is appended after #R.
    """
    executed = [a for a in ("cycles", "wear") if a in front.axes]
    rows = [
        [
            p.label,
            "yes" if on_front else "dominated",
            p.num_gates,
            p.depth,
            p.num_instructions,
            p.num_rrams,
        ]
        + [p.metric(a) for a in executed]
        + [p.equivalence or "-"]
        for on_front, points in ((True, front.points), (False, front.dominated))
        for p in points
    ]
    axis_names = ", ".join(_AXIS_LABELS.get(a, a) for a in front.axes)
    return f"Pareto ({axis_names}) frontier — {name}\n" + format_table(
        ["point", "front", "#N", "#D", "#I", "#R"]
        + [_AXIS_LABELS[a] for a in executed]
        + ["equivalence"],
        rows,
    )


# ----------------------------------------------------------------------
# X2/X5: scheduling and translation rules
# ----------------------------------------------------------------------

#: label → compiler options for the selection study
SELECTION_CONFIGS: dict[str, CompilerOptions] = {
    "naive": CompilerOptions.naive(fix_output_polarity=False),
    "index+cases": CompilerOptions.no_selection(fix_output_polarity=False),
    "releasing": CompilerOptions(fix_output_polarity=False, reorder="none"),
    "paper-rules": CompilerOptions(
        fix_output_polarity=False, reorder="none", level_rule=True
    ),
    "paper+unblock": CompilerOptions(
        fix_output_polarity=False, reorder="none", level_rule=True, unblocking_rule=True
    ),
    "dfs+releasing": CompilerOptions(fix_output_polarity=False),  # the default
}


@dataclass(frozen=True)
class SelectionPoint:
    config: str
    order: str  # "as-built" or "shuffled"
    instructions: int
    rrams: int


def selection_ablation(mig: Mig, rewrite_effort: int = 4) -> list[SelectionPoint]:
    """All selection configs on as-built and shuffled gate orders."""
    rewritten = rewrite_for_plim(mig, RewriteOptions(effort=rewrite_effort))
    # One AnalysisContext per gate order: all six option sets of an order
    # share its parents/levels/use-count analyses.
    orders = [
        ("as-built", AnalysisContext(rewritten)),
        ("shuffled", AnalysisContext(shuffle_topological(rewritten, seed=42))),
    ]
    points = []
    for label, options in SELECTION_CONFIGS.items():
        for order_label, context in orders:
            program = PlimCompiler(options).compile(context.mig, context=context)
            points.append(
                SelectionPoint(
                    config=label,
                    order=order_label,
                    instructions=program.num_instructions,
                    rrams=program.num_rrams,
                )
            )
    return points


def format_selection_ablation(name: str, points: Sequence[SelectionPoint]) -> str:
    rows = [[p.config, p.order, p.instructions, p.rrams] for p in points]
    return f"Candidate-selection ablation — {name}\n" + format_table(
        ["config", "order", "#I", "#R"], rows
    )


# ----------------------------------------------------------------------
# X3: allocator policy and endurance
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AllocatorPoint:
    policy: str
    instructions: int
    rrams: int
    wear: EnduranceReport


def allocator_ablation(
    mig: Mig,
    policies: Sequence[str] = ("fifo", "lifo", "fresh"),
    rewrite_effort: int = 4,
) -> list[AllocatorPoint]:
    """Compile with each allocator policy and measure real write wear.

    Each policy is measured through the
    :class:`~repro.core.cost.CompiledPlim` cost model — the same
    endurance-aware path guided rewriting optimizes against — so the
    wear numbers here are exactly
    the ones a ``plim``-objective rewrite would see: the program is
    executed once on the machine model (width 1, seeded random inputs)
    and the per-cell programming pulses counted, not estimated.
    """
    rewritten = rewrite_for_plim(mig, RewriteOptions(effort=rewrite_effort))
    # One AnalysisContext shared across the per-policy compiles.
    context = AnalysisContext(rewritten)
    points = []
    for policy in policies:
        model = CompiledPlim(allocator_policy=policy)
        report = model.measure(rewritten, context=context)
        points.append(
            AllocatorPoint(
                policy=policy,
                instructions=report["num_instructions"],
                rrams=report["num_rrams"],
                wear=report.wear,
            )
        )
    return points


def format_allocator_ablation(name: str, points: Sequence[AllocatorPoint]) -> str:
    rows = [
        [
            p.policy,
            p.instructions,
            p.rrams,
            p.wear.max_writes,
            f"{p.wear.mean_writes:.2f}",
            f"{p.wear.gini:.3f}",
        ]
        for p in points
    ]
    return f"Allocator/endurance ablation — {name}\n" + format_table(
        ["policy", "#I", "#R", "max writes/cell", "mean writes", "gini"], rows
    )


# ----------------------------------------------------------------------
# X4: output-polarity accounting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PolarityPoint:
    accounting: str
    instructions: int
    rrams: int
    inverted_outputs: int


def polarity_ablation(mig: Mig, rewrite_effort: int = 4) -> list[PolarityPoint]:
    """Paper accounting (complemented outputs free) vs. honest fix-up."""
    points = []
    for paper in (True, False):
        fix = not paper
        rewritten = rewrite_for_plim(mig, plim_rewrite_options(fix, effort=rewrite_effort))
        program = PlimCompiler(
            CompilerOptions(fix_output_polarity=fix)
        ).compile(rewritten)
        inverted = sum(1 for loc in program.output_cells.values() if loc.inverted)
        points.append(
            PolarityPoint(
                accounting="paper" if paper else "honest",
                instructions=program.num_instructions,
                rrams=program.num_rrams,
                inverted_outputs=inverted,
            )
        )
    return points


def format_polarity_ablation(name: str, points: Sequence[PolarityPoint]) -> str:
    rows = [
        [p.accounting, p.instructions, p.rrams, p.inverted_outputs] for p in points
    ]
    return f"Output-polarity accounting — {name}\n" + format_table(
        ["accounting", "#I", "#R", "outputs left inverted"], rows
    )


# ----------------------------------------------------------------------
# X8: cost-model-guided rewriting (the closed synthesis↔scheduling loop)
# ----------------------------------------------------------------------


def format_cost_loop_ablation(name: str, result: CostLoopResult) -> str:
    def row(step):
        m = step.metrics
        return [
            step.iteration,
            step.variant,
            "kept" if step.accepted else "-",
            m.get("num_gates", "-"),
            m.get("depth", "-"),
            m.get("num_instructions", "-"),
            m.get("num_rrams", "-"),
        ]

    rows = [row(step) for step in result.steps]
    base = result.baseline.get("num_instructions", "-")
    status = "converged" if result.converged else "budget exhausted"
    summary = (
        f"# {result.model} objective: #I {base} -> {result.num_instructions}, "
        f"{result.iterations} round(s), {status}"
    )
    return (
        f"Cost-loop ablation — {name}\n"
        + format_table(
            ["round", "variant", "kept", "#N", "#D", "#I", "#R"], rows
        )
        + f"\n{summary}"
    )


def _ablation_section(payload) -> str:
    """One formatted ablation section (module-level for pool dispatch)."""
    section, name, scale = payload
    mig = benchmark_info(name).build(scale)
    if section == "effort":
        return format_effort_sweep(name, effort_sweep(mig))
    if section == "objective":
        return format_objective_ablation(name, objective_ablation(mig))
    if section == "pareto":
        # inline (workers=1): the sections already fan out over a pool
        front = pareto_sweep(mig, effort=4, workers=1, max_points=8)
        return format_pareto_front(name, front)
    if section == "selection":
        return format_selection_ablation(name, selection_ablation(mig))
    if section == "allocator":
        return format_allocator_ablation(name, allocator_ablation(mig))
    if section == "polarity":
        return format_polarity_ablation(name, polarity_ablation(mig))
    if section == "cost_loop":
        return format_cost_loop_ablation(name, compile_cost_loop(mig))
    raise ValueError(f"unknown ablation section {section!r}")


ABLATION_SECTIONS = (
    "effort", "objective", "pareto", "selection", "allocator", "polarity",
    "cost_loop",
)


def run_benchmark_ablations(
    name: str, scale: str = "default", *, workers: Optional[int] = None
) -> str:
    """Every ablation section on one benchmark; returns the combined report.

    ``workers`` fans the studies out over a process pool (they are
    independent; ``None``, the default, means one worker per CPU — the
    package-wide convention); the section order of the report is fixed
    either way.
    """
    payloads = [(section, name, scale) for section in ABLATION_SECTIONS]
    return "\n\n".join(parallel_map(_ablation_section, payloads, workers=workers))
