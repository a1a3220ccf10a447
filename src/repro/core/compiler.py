"""The PLiM compiler: Algorithm 2 of the paper.

The compilation loop maintains ``COMP[v]`` (has node ``v`` been computed?)
and a queue of *candidates* — gates whose children are all computed.  Each
iteration pops the best candidate, translates it into RM3 instructions
(§4.2.2), marks it computed, and enqueues any parents that became ready.

:class:`CompilerOptions` selects between the paper's optimizing
configuration and the baselines used in the evaluation:

* ``CompilerOptions()`` — the full compiler: priority-queue scheduling,
  case-based operand selection, complement caching, FIFO allocation.
* ``CompilerOptions.naive()`` — the §3 baseline: index-order scheduling and
  child-order operand selection with no complement caching.
* ``CompilerOptions.no_selection()`` — only the candidate-selection scheme
  disabled (the literal reading of the Table 1 baseline): index order but
  smart per-node translation.

Candidate selection (§4.2.1) lives in :mod:`repro.core.schedule` and node
translation (§4.2.2) in :mod:`repro.core.translate_fast`; both work on
the graph core's raw child encodings.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from sys import maxsize
from time import perf_counter
from typing import Optional

from repro.core.allocator import POLICIES, RramAllocator
from repro.core.schedule import make_scheduler
from repro.core.translate_fast import FastTranslationState, translate_node_fast
from repro.errors import CompilationError
from repro.mig.context import AnalysisContext
from repro.mig.graph import _GATE, Mig
from repro.plim.program import Program


def _program_cost(program: Program) -> tuple[int, int]:
    """Ranking for ``reorder="best"``: fewest work RRAMs, then fewest
    instructions."""
    return (program.num_rrams, program.num_instructions)

SCHEDULING_MODES = ("priority", "index")
OPERAND_MODES = ("cases", "child_order")


@dataclass(frozen=True)
class CompilerOptions:
    """Configuration knobs of the compiler (see module docstring)."""

    scheduling: str = "priority"
    operand_selection: str = "cases"
    complement_caching: bool = True
    allocator_policy: str = "fifo"
    #: True: complemented outputs are inverted into a cell (2 extra
    #: instructions each); False: the paper's accounting — outputs may rest
    #: in complemented form, flagged in the program's output contract.
    fix_output_polarity: bool = True
    #: drop dead gates before compiling (node indices are then re-packed)
    clean: bool = True
    #: pre-ordering pass: "dfs" re-indexes gates in PO-driven depth-first
    #: postorder before scheduling, making cell liveness independent of the
    #: input file's gate order; "none" keeps the given order (the naïve
    #: baseline translates in as-given index order, like the paper's);
    #: "best" (default) keeps the program with fewer work RRAMs, then
    #: fewer instructions, ties going to the as-given order — DFS wins on
    #: hostile orders, the as-given order can win when the builder
    #: interleaved shared consumers.  It compiles the DFS image first, then
    #: the as-given order only until its partial program provably loses.
    reorder: str = "best"
    #: candidate-selection rule toggles (ablation X5).  The paper's
    #: comparator is releasing → levels → index; on creation-ordered MIGs
    #: the level rule degrades liveness badly (it digs breadth-first along
    #: the lowest parent-level frontier), so the default uses principle (i)
    #: with dynamic refresh only.  ``unblocking_rule`` is this package's
    #: one-step lookahead extension of principle (i).
    unblocking_rule: bool = False
    level_rule: bool = False
    #: hard budget on distinct work RRAMs (#R); None = unlimited.  Under
    #: pressure, cached complements are evicted and recomputed on demand
    #: (the paper's future-work item: "constraints in the optimization,
    #: e.g., a limited number of RRAMs").  Infeasible budgets raise
    #: CompilationError.
    max_work_cells: "Optional[int]" = None

    @classmethod
    def paper_selection(cls, **overrides) -> "CompilerOptions":
        """The literal §4.2.1 comparator: releasing, then parent levels."""
        base = cls(level_rule=True)
        return replace(base, **overrides)

    def __post_init__(self):
        if self.scheduling not in SCHEDULING_MODES:
            raise CompilationError(
                f"unknown scheduling {self.scheduling!r}; expected one of {SCHEDULING_MODES}"
            )
        if self.operand_selection not in OPERAND_MODES:
            raise CompilationError(
                f"unknown operand selection {self.operand_selection!r}; "
                f"expected one of {OPERAND_MODES}"
            )
        if self.allocator_policy not in POLICIES:
            raise CompilationError(
                f"unknown allocator policy {self.allocator_policy!r}; "
                f"expected one of {POLICIES}"
            )
        if self.reorder not in ("none", "dfs", "best"):
            raise CompilationError(
                f"unknown reorder mode {self.reorder!r}; "
                "expected 'none', 'dfs', or 'best'"
            )

    @classmethod
    def naive(cls, **overrides) -> "CompilerOptions":
        """The §3 baseline translator."""
        base = cls(
            scheduling="index",
            operand_selection="child_order",
            complement_caching=False,
            reorder="none",
        )
        return replace(base, **overrides)

    @classmethod
    def no_selection(cls, **overrides) -> "CompilerOptions":
        """Only candidate selection disabled (Table 1's literal baseline)."""
        base = cls(scheduling="index", reorder="none")
        return replace(base, **overrides)


class PlimCompiler:
    """Compiles MIGs into PLiM programs (paper Algorithm 2)."""

    def __init__(self, options: Optional[CompilerOptions] = None):
        self.options = options if options is not None else CompilerOptions()
        self._timings = {"schedule_seconds": 0.0, "translate_seconds": 0.0}

    @property
    def last_timings(self) -> dict[str, float]:
        """Per-stage wall-clock of the most recent :meth:`compile` call.

        ``schedule_seconds`` covers graph preparation (cleanup, reorder,
        cached analyses) plus candidate-scheduler construction;
        ``translate_seconds`` covers the translation loop and output
        fix-up.  With ``reorder="best"`` both compilations are included:
        the DFS image in full, then the as-given order until it provably
        loses.
        """
        return dict(self._timings)

    def compile(self, mig: Mig, context: Optional[AnalysisContext] = None) -> Program:
        """Translate ``mig`` into an executable :class:`Program`.

        Pass the same :class:`AnalysisContext` to repeated calls on one MIG
        (e.g. when sweeping option sets) and the per-order structural
        analyses — cleanup, DFS reorder, parents, levels, use counts — are
        computed once and shared across all of them.
        """
        self._timings = {"schedule_seconds": 0.0, "translate_seconds": 0.0}
        start = perf_counter()
        ctx = AnalysisContext.of(mig, context)
        if self.options.clean:
            ctx = ctx.cleaned()
        if self.options.reorder in ("dfs", "best"):
            dfs_ctx = ctx.reordered_dfs()
        self._timings["schedule_seconds"] += perf_counter() - start
        if self.options.reorder == "dfs":
            return self._compile_ordered(dfs_ctx)
        if self.options.reorder == "best":
            dfs = self._compile_ordered(dfs_ctx)
            as_given = self._compile_ordered(ctx, _program_cost(dfs))
            if as_given is None or _program_cost(dfs) < _program_cost(as_given):
                return dfs
            return as_given
        return self._compile_ordered(ctx)

    def _compile_ordered(
        self, ctx: AnalysisContext, bound: Optional[tuple[int, int]] = None
    ) -> Optional[Program]:
        """Run Algorithm 2 on an MIG whose node order is final.

        With a ``bound`` of ``(work RRAMs, instructions)`` — the program
        to beat under :func:`_program_cost`, ties going to this order —
        the loop returns ``None`` as soon as the partial program provably
        loses: both counts only grow while the loop runs, so once it uses
        more cells than the bound, or as many cells and more
        instructions, the finished program would too.
        """
        start = perf_counter()
        mig = ctx.mig
        program = Program(
            input_cells={name: i for i, name in enumerate(mig.pi_names())},
            name=mig.name,
        )
        allocator = RramAllocator(
            first_address=mig.num_pis, policy=self.options.allocator_policy
        )
        state = FastTranslationState(
            ctx,
            program,
            allocator,
            complement_caching=self.options.complement_caching,
            max_work_cells=self.options.max_work_cells,
        )
        naive = self.options.operand_selection == "child_order"

        parents = ctx.parents
        n = len(mig)
        ca, cb, cc = mig._ca, mig._cb, mig._cc
        kind = mig._kind
        computed = bytearray(n)
        computed[0] = 1
        for pi in mig.pis():
            computed[pi.node] = 1
        pending = array("q", [0]) * n
        gate_order = ctx.gate_order
        for v in gate_order:
            pending[v] = (
                (not computed[ca[v] >> 1])
                + (not computed[cb[v] >> 1])
                + (not computed[cc[v] >> 1])
            )
        scheduler = make_scheduler(self.options, ctx, state, pending)
        push = scheduler.push
        for v in gate_order:
            if not pending[v]:
                push(v)
        self._timings["schedule_seconds"] += perf_counter() - start

        start = perf_counter()
        translated = 0
        remaining = state.remaining
        pop = scheduler.pop
        refresh = scheduler.refresh
        work_cells = program.work_cells
        max_cells, max_instructions = bound if bound is not None else (maxsize, 0)
        while len(scheduler):
            v = pop()
            translate_node_fast(state, v, naive=naive)
            if len(work_cells) >= max_cells and (
                len(work_cells) > max_cells
                or program.num_instructions > max_instructions
            ):
                self._timings["translate_seconds"] += perf_counter() - start
                return None
            computed[v] = 1
            translated += 1
            for parent in parents[v]:
                p = pending[parent] - 1
                pending[parent] = p
                if p == 0:
                    push(parent)
                elif p == 1:
                    # The last missing child of `parent` just became more
                    # attractive (unblocking rule) — re-rank it if queued.
                    for e in (ca[parent], cb[parent], cc[parent]):
                        sibling = e >> 1
                        if not computed[sibling] and sibling in scheduler:
                            refresh(sibling)
            # A child whose remaining uses just dropped to 1 raises the
            # releasing count of its still-queued consumers.
            for e in (ca[v], cb[v], cc[v]):
                child = e >> 1
                if kind[child] == _GATE and remaining[child] == 1:
                    for consumer in parents[child]:
                        if consumer in scheduler:
                            refresh(consumer)
        if translated != mig.num_gates:
            raise CompilationError(
                f"translated {translated} of {mig.num_gates} gates — cyclic or broken MIG"
            )

        self._finalize_outputs(mig, state, program)
        self._timings["translate_seconds"] += perf_counter() - start
        return program

    # ------------------------------------------------------------------

    def _finalize_outputs(
        self, mig: Mig, state: FastTranslationState, program: Program
    ) -> None:
        """Record (and, in honest mode, fix up) every output's location."""
        for po, name in zip(mig.pos(), mig.po_names()):
            if po.is_const:
                address = state.alloc()
                state.emit_set_const(address, po.const_value, target=name)
                program.set_output(name, address)
                continue
            if po.inverted and self.options.fix_output_polarity:
                address = state.materialize_complement(po.node)
                program.set_output(name, address, inverted=False)
                continue
            address = state.value_cell[po.node]
            if address < 0:  # never computed, or consumed by a parent
                raise CompilationError(
                    f"output {name!r} refers to node {po.node} whose cell was lost"
                )
            program.set_output(name, address, inverted=po.inverted)
