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

One loop per node order (:meth:`PlimCompiler._compile_ordered`) owns the
candidate heap and calls one per-gate step per translated gate.  The
candidate keys (§4.2.1) come from :mod:`repro.core.schedule`; the step —
operand and destination selection (§4.2.2), cell allocation and release
(§4.2.3) — from :mod:`repro.core.translate_fast`.  Both work on the graph
core's raw child encodings and on flat per-node lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heappop, heappush
from sys import maxsize
from time import perf_counter
from typing import Optional

from repro.core.schedule import candidate_key_fn
from repro.core.translate_fast import FastTranslationState
from repro.errors import CompilationError
from repro.mig.context import AnalysisContext
from repro.mig.graph import _GATE, Mig
from repro.plim.program import Program


def _program_cost(program: Program) -> tuple[int, int]:
    """Ranking for ``reorder="best"``: fewest work RRAMs, then fewest
    instructions."""
    return (program.num_rrams, program.num_instructions)


def _check_output_names(mig: Mig) -> None:
    """A program's output contract is keyed by name: two outputs sharing
    one would silently leave only the last."""
    seen: set[str] = set()
    for name in mig.po_names():
        if name in seen:
            raise CompilationError(
                f"duplicate output name {name!r}: each primary output needs "
                "a distinct name"
            )
        seen.add(name)


SCHEDULING_MODES = ("priority", "index")
OPERAND_MODES = ("cases", "child_order")
#: §4.2.3 work-cell reuse: oldest released first (the paper's), most
#: recently released first, or never reuse (the endurance ablation)
POLICIES = ("fifo", "lifo", "fresh")
#: node orders Algorithm 2 runs on: as given, or the better of as given
#: and the DFS image (see ``CompilerOptions.reorder``)
REORDER_MODES = ("none", "best")


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
    #: node order of the (dead-gate-free) graph Algorithm 2 schedules:
    #: "none" keeps the given order (the naïve baseline translates in
    #: as-given index order, like the paper's); "best" (default) also
    #: compiles the PO-driven depth-first postorder image, which makes cell
    #: liveness independent of the input file's gate order, and keeps the
    #: program with fewer work RRAMs, then fewer instructions, ties going
    #: to the as-given order — DFS wins on hostile orders, the as-given
    #: order can win when the builder interleaved shared consumers.  It
    #: compiles the DFS image first, then the as-given order only until its
    #: partial program provably loses.
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
        if self.reorder not in REORDER_MODES:
            raise CompilationError(
                f"unknown reorder mode {self.reorder!r}; "
                f"expected one of {REORDER_MODES}"
            )
        budget = self.max_work_cells
        if budget is not None and (
            not isinstance(budget, int) or isinstance(budget, bool) or budget < 1
        ):
            raise CompilationError(
                f"max_work_cells must be None or an integer >= 1, got {budget!r}"
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
        cached analyses) plus the initial candidate queue;
        ``translate_seconds`` covers the translation loop and output
        fix-up.  With ``reorder="best"`` both compilations are included:
        the DFS image in full, then the as-given order until it provably
        loses.
        """
        return dict(self._timings)

    def compile(self, mig: Mig, context: Optional[AnalysisContext] = None) -> Program:
        """Translate ``mig`` into an executable :class:`Program`.

        Dead gates are dropped first (node indices are then re-packed).
        Pass the same :class:`AnalysisContext` to repeated calls on one MIG
        (e.g. when sweeping option sets) and the per-order structural
        analyses — cleanup, DFS reorder, parents, levels, use counts — are
        computed once and shared across all of them.
        """
        self._timings = {"schedule_seconds": 0.0, "translate_seconds": 0.0}
        start = perf_counter()
        _check_output_names(mig)
        ctx = AnalysisContext.of(mig, context).cleaned()
        dfs_ctx = ctx.reordered_dfs() if self.options.reorder == "best" else None
        self._timings["schedule_seconds"] += perf_counter() - start
        if dfs_ctx is None:
            return self._compile_ordered(ctx)
        dfs = self._compile_ordered(dfs_ctx)
        as_given = self._compile_ordered(ctx, _program_cost(dfs))
        if as_given is None or _program_cost(dfs) < _program_cost(as_given):
            return dfs
        return as_given

    def _compile_ordered(
        self, ctx: AnalysisContext, bound: Optional[tuple[int, int]] = None
    ) -> Optional[Program]:
        """Run Algorithm 2 on an MIG whose node order is final.

        One loop pops the best candidate, translates it with the order's
        per-gate step (:meth:`FastTranslationState.gate_step`), queues the
        parents it completed and re-keys the queued candidates whose
        context it changed.  Heap entries are ``int`` keys (node in the
        low bits, see :func:`candidate_key_fn`) and ``queued[node]`` holds
        the live key, so an entry that no longer matches is stale; a
        re-key that leaves the key unchanged is skipped.  Under the level
        rule entries are ``(CandidateKey, node, version)`` and every
        re-key is pushed, because that comparator is not transitive and
        the pop order depends on the exact heap contents.

        With a ``bound`` of ``(work RRAMs, instructions)`` — the program
        to beat under :func:`_program_cost`, ties going to this order —
        the loop returns ``None`` as soon as the partial program provably
        loses: both counts only grow while the loop runs, so once it uses
        more cells than the bound, or as many cells and more
        instructions, the finished program would too.
        """
        start = perf_counter()
        options = self.options
        mig = ctx.mig
        program = Program(
            input_cells={name: i for i, name in enumerate(mig.pi_names())},
            name=mig.name,
        )
        state = FastTranslationState(
            ctx,
            program,
            complement_caching=options.complement_caching,
            allocator_policy=options.allocator_policy,
            max_work_cells=options.max_work_cells,
        )
        step = state.gate_step(options.operand_selection == "child_order")
        remaining = state.remaining
        parents = ctx.parents
        n = len(mig)
        ca, cb, cc = mig._ca, mig._cb, mig._cc
        kind = mig._kind
        computed = bytearray(n)
        computed[0] = 1
        for pi in mig.pis():
            computed[pi.node] = 1
        pending = [0] * n
        gate_order = ctx.gate_order
        for v in gate_order:
            pending[v] = (
                (not computed[ca[v] >> 1])
                + (not computed[cb[v] >> 1])
                + (not computed[cc[v] >> 1])
            )

        # --- the candidate queue (§4.2.1) ---------------------------------
        key = candidate_key_fn(options, ctx, remaining, pending)
        priority = options.scheduling == "priority"
        level_rule = priority and options.level_rule
        # Re-key events: a child's uses dropping to 1 changes its queued
        # consumers' releasing count; a parent's pending count dropping to
        # 1 changes its last missing child's unblocks count (and, under
        # the level rule, re-pushes it even when nothing changed).
        refresh_consumers = priority
        refresh_siblings = level_rule or (priority and options.unblocking_rule)
        queued = [-1] * n  # live key (level rule: version); -1 = not queued
        heap: list = []
        mask = (1 << n.bit_length()) - 1

        if level_rule:

            def push(node: int) -> None:
                queued[node] = 0
                heappush(heap, (key(node), node, 0))

            def refresh(node: int) -> None:
                version = queued[node] + 1
                queued[node] = version
                heappush(heap, (key(node), node, version))

        else:

            def push(node: int) -> None:
                k = queued[node] = key(node)
                heappush(heap, k)

            def refresh(node: int) -> None:
                k = key(node)
                if k != queued[node]:
                    queued[node] = k
                    heappush(heap, k)

        for v in gate_order:
            if not pending[v]:
                push(v)
        self._timings["schedule_seconds"] += perf_counter() - start

        start = perf_counter()
        translated = 0
        work_cells = program.work_cells
        instructions = program._dst
        max_cells, max_instructions = bound if bound is not None else (maxsize, 0)
        while heap:
            entry = heappop(heap)
            if level_rule:
                v = entry[1]
                if queued[v] != entry[2]:
                    continue  # superseded by a refresh
            else:
                v = entry & mask
                if queued[v] != entry:
                    continue
            queued[v] = -1
            step(v)
            if len(work_cells) >= max_cells and (
                len(work_cells) > max_cells or len(instructions) > max_instructions
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
                elif p == 1 and refresh_siblings:
                    for e in (ca[parent], cb[parent], cc[parent]):
                        sibling = e >> 1
                        if not computed[sibling] and queued[sibling] >= 0:
                            refresh(sibling)
            if refresh_consumers:
                for e in (ca[v], cb[v], cc[v]):
                    child = e >> 1
                    if remaining[child] == 1 and kind[child] == _GATE:
                        for consumer in parents[child]:
                            if queued[consumer] >= 0:
                                refresh(consumer)
        if translated != mig.num_gates:
            raise CompilationError(
                f"translated {translated} of {mig.num_gates} gates — cyclic or broken MIG"
            )

        state.finalize_outputs(options.fix_output_polarity)
        self._timings["translate_seconds"] += perf_counter() - start
        return program
