"""The Signal/dict Algorithm 2, kept as the oracle for the shipped one.

This is the translation stage as it was before it moved onto raw child
encodings (:mod:`repro.core.translate_fast`): per-node state in dicts,
children as :class:`~repro.mig.signal.Signal` triples, operands as
:class:`~repro.plim.isa.Operand` objects and comments as eager
f-strings.  :class:`ReferenceCompiler` runs the paper's candidate
scheduling and node translation on it; the shipped
:class:`~repro.core.compiler.PlimCompiler` must emit the same ``.plim``
text byte for byte (``tests/test_compile_fast_differential.py``,
``tests/property/test_prop_compile_fast.py``,
``tests/test_translate_cases.py``), and
``benchmarks/bench_plim_compile.py`` times the two.  No third-party
imports, so the standalone benchmark can load this module.

Node translation (paper §4.2.2): one MIG gate → RM3 instructions.

``RM3(A, B, Z)`` computes ``Z ← ⟨A, ¬B, Z⟩``, so translating a gate
``⟨x y z⟩`` means deciding which child becomes the *inverted* operand B,
which child's value pre-loads the destination cell Z, and which is read
directly as A.  In the ideal case — exactly one complemented child (B) and
one releasable plain child (Z) — a gate costs a single instruction and zero
fresh cells; every deviation costs extra instructions and possibly extra
RRAMs.  This module implements the paper's full case analysis:

* operand B: cases (a)–(h) of Fig. 5,
* destination Z: cases (a)–(e) of Fig. 6,
* operand A: the four rules at the end of §4.2.2,

plus the *naïve* child-order selection of §3's motivating example (operands
A, B and destination Z taken from children 1, 2, 3 respectively), which is
the paper's baseline translator.

The :class:`TranslationState` tracks, per MIG node, the cell holding its
value, an optional cell holding its *complement* ("it is remembered for
future use", Fig. 5(f)), and the number of remaining readers — when that
count reaches zero the node's cells go back to the allocator (§4.2.3).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.core.allocator import RramAllocator
from repro.core.compiler import PlimCompiler
from repro.core.schedule import CandidateKey, make_key
from repro.errors import CompilationError
from repro.mig.context import AnalysisContext
from repro.mig.graph import Mig
from repro.mig.signal import Signal
from repro.plim.isa import Instruction, Operand, ONE, ZERO
from repro.plim.program import Program

#: sentinel: a node's value cell was overwritten in place by a parent
CONSUMED = -1


class TranslationState:
    """Mutable state shared by all node translations of one compilation."""

    def __init__(
        self,
        source: "Mig | AnalysisContext",
        program: Program,
        allocator: RramAllocator,
        remaining_uses: Optional[dict[int, int]] = None,
        complement_caching: bool = True,
        max_work_cells: Optional[int] = None,
    ):
        """``source`` is the graph being translated, either bare or wrapped
        in an :class:`AnalysisContext` (the compiler passes the context so
        the initial use counts come from its cache).  ``remaining_uses``
        may override the context-derived counts; it is mutated in place.
        """
        context = source if isinstance(source, AnalysisContext) else AnalysisContext(source)
        self.context = context
        self.mig = context.mig
        if remaining_uses is None:
            remaining_uses = context.fresh_uses()
        self.program = program
        self.allocator = allocator
        self.complement_caching = complement_caching
        #: hard budget on distinct work cells (#R); None = unlimited.
        #: Under pressure, cached complements are evicted (they are pure
        #: caches — recomputable from the node's value cell), implementing
        #: the paper's future-work item "constraints in the optimization,
        #: e.g., a limited number of RRAMs".
        self.max_work_cells = max_work_cells
        #: cells referenced by the node currently being translated —
        #: protected from cache eviction until its RM3 is emitted.
        self._protected: set[int] = set()
        #: node → cell currently holding its value (PIs: their input cell)
        self.value_cell: dict[int, int] = {}
        #: node → cell holding its complement (cache of Fig. 5(f))
        self.compl_cell: dict[int, int] = {}
        #: node → number of future reads (parent edges + PO edges)
        self.remaining_uses = remaining_uses
        #: temp cells to release right after the current node's RM3
        self._pending_temps: list[int] = []
        #: incremental cell → display-name map (input names, then @X1, @X2 ...)
        self._cell_names: dict[int, str] = {}
        for pi in self.mig.pis():
            name = self.mig.pi_name(pi.node)
            address = program.input_cells[name]
            self.value_cell[pi.node] = address
            self._cell_names[address] = name

    # ------------------------------------------------------------------
    # emission helpers
    # ------------------------------------------------------------------

    def emit(self, a: Operand, b: Operand, z: int, comment: str = "") -> None:
        """Append one RM3 instruction."""
        self.program.append(Instruction(a, b, z, comment))

    def alloc(self) -> int:
        """Request a work cell and record it in the program's inventory.

        When a ``max_work_cells`` budget is set and a fresh address would
        exceed it, a cached complement cell is evicted (oldest first) so
        its address can be recycled; if nothing is evictable, compilation
        fails — the function genuinely needs more cells.
        """
        if (
            self.max_work_cells is not None
            and self.allocator.num_free == 0
            and self.allocator.num_allocated >= self.max_work_cells
        ):
            self._evict_complement_cache()
        address = self.allocator.request()
        self.program.register_work_cell(address)
        if address not in self._cell_names:
            self._cell_names[address] = f"@X{len(self.program.work_cells)}"
        self._protected.add(address)
        return address

    def _evict_complement_cache(self) -> None:
        """Free the oldest unprotected cached complement (or fail)."""
        victim = next(
            (
                (node, address)
                for node, address in self.compl_cell.items()
                if address not in self._protected
            ),
            None,
        )
        if victim is not None:
            node, address = victim
            del self.compl_cell[node]
            self.allocator.release(address)
            return
        raise CompilationError(
            f"work-cell budget of {self.max_work_cells} exceeded and no "
            "cached complement is evictable; the function needs more RRAMs"
        )

    def begin_node(self) -> None:
        """Reset per-node state (eviction protection)."""
        self._protected.clear()

    def protect(self, address: int) -> None:
        """Shield ``address`` from cache eviction for the current node."""
        self._protected.add(address)

    def alloc_temp(self) -> int:
        """Work cell released automatically after the current node."""
        address = self.alloc()
        self._pending_temps.append(address)
        return address

    def release_temps(self) -> None:
        """Release the per-node temporaries (naïve mode bookkeeping)."""
        for address in self._pending_temps:
            self.allocator.release(address)
        self._pending_temps.clear()

    def cell_label(self, address: int) -> str:
        """Readable cell name for instruction comments."""
        return self._cell_names.get(address, f"@{address}")

    def emit_set_const(self, address: int, bit: int, target: str = "") -> None:
        """``X ← bit`` in one instruction, from any prior cell state."""
        if bit:
            self.emit(ONE, ZERO, address, f"{target or self.cell_label(address)} <- 1")
        else:
            self.emit(ZERO, ONE, address, f"{target or self.cell_label(address)} <- 0")

    def emit_load(self, address: int, source: Operand, comment: str) -> None:
        """``X ← source`` in two instructions (clear, then load)."""
        self.emit_set_const(address, 0)
        self.emit(source, ZERO, address, comment)

    def emit_load_compl(self, address: int, source: Operand, comment: str) -> None:
        """``X ← ¬source`` in two instructions (clear, then inverted load)."""
        self.emit_set_const(address, 0)
        self.emit(ONE, source, address, comment)

    # ------------------------------------------------------------------
    # value access
    # ------------------------------------------------------------------

    def value_operand(self, node: int) -> Operand:
        """Operand reading ``node``'s plain value from its cell."""
        try:
            address = self.value_cell[node]
        except KeyError:
            raise CompilationError(f"node {node} has not been computed yet") from None
        if address == CONSUMED:
            raise CompilationError(f"node {node}'s value cell was already overwritten")
        return Operand.cell(address)

    def node_label(self, signal: Signal) -> str:
        """Readable label of a child signal for comments."""
        return self.mig.signal_name(signal)

    def materialize_complement(self, node: int, as_temp: bool = False) -> int:
        """Ensure a cell holds ``¬node``; returns its address.

        With caching enabled the cell is remembered for future readers and
        released together with the node; with ``as_temp`` (naïve mode) it
        is queued for release right after the current node.
        """
        if self.complement_caching and node in self.compl_cell:
            self._protected.add(self.compl_cell[node])
            return self.compl_cell[node]
        address = self.alloc_temp() if as_temp else self.alloc()
        label = self.cell_label(address)
        name = self.node_label(Signal.make(node, True))
        self.emit_load_compl(address, self.value_operand(node), f"{label} <- {name}")
        if self.complement_caching and not as_temp:
            self.compl_cell[node] = address
        return address

    # ------------------------------------------------------------------
    # reference counting / release (paper §4.2.3)
    # ------------------------------------------------------------------

    def consume_children(self, node: int) -> None:
        """Decrement use counts of ``node``'s children, releasing cells."""
        for child in self.mig.children(node):
            if child.is_const:
                continue
            self._decrement(child.node)

    def _decrement(self, node: int) -> None:
        uses = self.remaining_uses[node] - 1
        if uses < 0:
            raise CompilationError(f"use count of node {node} went negative")
        self.remaining_uses[node] = uses
        if uses == 0:
            self._release_node(node)

    def _release_node(self, node: int) -> None:
        """All readers done: hand the node's cells back to the allocator."""
        if self.mig.is_gate(node):
            address = self.value_cell.get(node)
            if address is not None and address != CONSUMED:
                self.allocator.release(address)
                self.value_cell[node] = CONSUMED
        # Primary-input cells are not allocator-managed, but a cached
        # complement of a PI is an ordinary work cell.
        compl = self.compl_cell.pop(node, None)
        if compl is not None:
            self.allocator.release(compl)


@dataclass(frozen=True)
class NodePlan:
    """Resolved operands for one gate's final RM3 instruction."""

    a: Operand
    b: Operand
    z: int


def translate_node(state: TranslationState, node: int, naive: bool = False) -> None:
    """Translate one gate into RM3 instructions (§4.2.2 or naïve §3)."""
    state.begin_node()
    children = state.mig.children(node)
    if naive:
        plan = _plan_child_order(state, children)
    else:
        plan = _plan_cases(state, children)
    state.emit(plan.a, plan.b, plan.z, f"{state.cell_label(plan.z)} <- n{node}")
    state.value_cell[node] = plan.z
    state.release_temps()
    state.consume_children(node)


# ----------------------------------------------------------------------
# the paper's case analysis (Figs. 5 and 6)
# ----------------------------------------------------------------------


def _plan_cases(state: TranslationState, children) -> NodePlan:
    b_index, b_operand = _select_operand_b(state, children)
    rest = [i for i in range(3) if i != b_index]
    z_index, z_cell = _select_destination(state, children, rest)
    (a_index,) = [i for i in rest if i != z_index]
    a_operand = _operand_a(state, children[a_index])
    return NodePlan(a=a_operand, b=b_operand, z=z_cell)


def _select_operand_b(state: TranslationState, children) -> tuple[int, Operand]:
    """Fig. 5: choose the child that enters the majority complemented."""
    uses = state.remaining_uses
    complemented = [
        (i, s) for i, s in enumerate(children) if not s.is_const and s.inverted
    ]
    plain = [
        (i, s) for i, s in enumerate(children) if not s.is_const and not s.inverted
    ]
    consts = [(i, s) for i, s in enumerate(children) if s.is_const]

    if len(complemented) == 1:
        # (a) ideal case: the single complemented child.
        i, s = complemented[0]
        return i, state.value_operand(s.node)
    if len(complemented) >= 2:
        if consts:
            # (b) several complemented children but a constant gives the
            # remaining operands flexibility; absorb a non-constant one —
            # prefer one with further readers (it cannot be a destination).
            for i, s in complemented:
                if uses[s.node] > 1:
                    return i, state.value_operand(s.node)
            i, s = complemented[0]
            return i, state.value_operand(s.node)
        # (d) a multi-fanout complemented child cannot serve as the
        # destination anyway, so let B claim it ...
        for i, s in complemented:
            if uses[s.node] > 1:
                return i, state.value_operand(s.node)
        # (e) ... otherwise the first complemented child.
        i, s = complemented[0]
        return i, state.value_operand(s.node)
    # No complemented child from here on.
    if consts:
        # (c) B becomes the inverse of the constant (¬B is the constant).
        _, s = consts[0]
        return consts[0][0], Operand.const(1 - s.const_value)
    if state.complement_caching:
        # (f) a child whose complement is already stored in some cell.
        for i, s in plain:
            if s.node in state.compl_cell:
                address = state.compl_cell[s.node]
                state.protect(address)
                return i, Operand.cell(address)
    # (g) complement a multi-fanout child (excluded as destination) ...
    for i, s in plain:
        if uses[s.node] > 1:
            return i, Operand.cell(
                state.materialize_complement(s.node, as_temp=not state.complement_caching)
            )
    # (h) ... or, failing everything, the first child.
    i, s = plain[0]
    return i, Operand.cell(
        state.materialize_complement(s.node, as_temp=not state.complement_caching)
    )


def _select_destination(
    state: TranslationState, children, candidates: list[int]
) -> tuple[int, int]:
    """Fig. 6: choose the destination cell Z among the two non-B children.

    Returns ``(child_index, cell_address)``.  The cell must hold the chosen
    child edge's value when the final RM3 executes.
    """
    uses = state.remaining_uses
    mig = state.mig

    # (a) complemented child, last use, complement already in a cell:
    # overwrite that cell.
    for i in candidates:
        s = children[i]
        if s.is_const or not s.inverted:
            continue
        if uses[s.node] == 1 and s.node in state.compl_cell:
            address = state.compl_cell.pop(s.node)
            state.protect(address)
            return i, address
    # (b) plain gate child on its last use: overwrite its value cell.
    for i in candidates:
        s = children[i]
        if s.is_const or s.inverted or not mig.is_gate(s.node):
            continue
        if uses[s.node] == 1:
            address = state.value_cell[s.node]
            if address == CONSUMED:
                raise CompilationError(f"node {s.node} consumed twice")
            state.value_cell[s.node] = CONSUMED  # ownership moves to the parent
            state.protect(address)
            return i, address
    # (c) constant child: fresh cell initialized to the constant.
    for i in candidates:
        s = children[i]
        if s.is_const:
            address = state.alloc()
            state.emit_set_const(address, s.const_value)
            return i, address
    # (d) complemented child: fresh cell loaded with its complement.
    for i in candidates:
        s = children[i]
        if s.inverted:
            address = state.alloc()
            label = state.cell_label(address)
            name = state.node_label(s)
            state.emit_load_compl(address, state.value_operand(s.node), f"{label} <- {name}")
            return i, address
    # (e) plain child (multi-fanout or a primary input): copy its value.
    i = candidates[0]
    s = children[i]
    address = state.alloc()
    label = state.cell_label(address)
    state.emit_load(address, state.value_operand(s.node), f"{label} <- {state.node_label(s)}")
    return i, address


def _operand_a(state: TranslationState, s: Signal) -> Operand:
    """Operand A rules (end of §4.2.2) for the remaining child."""
    if s.is_const:
        # (a) constant child, complement edge folded into the value.
        return Operand.const(s.const_value)
    if not s.inverted:
        # (b) plain child: read its value cell.
        return state.value_operand(s.node)
    if s.node in state.compl_cell:
        # (c) complement already available.
        address = state.compl_cell[s.node]
        state.protect(address)
        return Operand.cell(address)
    # (d) fabricate (and cache) the complement.
    return Operand.cell(
        state.materialize_complement(s.node, as_temp=not state.complement_caching)
    )


# ----------------------------------------------------------------------
# naïve child-order selection (paper §3)
# ----------------------------------------------------------------------


def _plan_child_order(state: TranslationState, children) -> NodePlan:
    """Operands in child order: A ← child 1, B ← child 2, Z ← child 3."""
    a_sig, b_sig, z_sig = children
    # Operand B must deliver the child's value through the built-in
    # inversion: a complemented edge reads the child's plain cell, a plain
    # edge needs the complement fabricated (never cached in naïve mode).
    if b_sig.is_const:
        b_operand = Operand.const(1 - b_sig.const_value)
    elif b_sig.inverted:
        b_operand = state.value_operand(b_sig.node)
    else:
        b_operand = Operand.cell(state.materialize_complement(b_sig.node, as_temp=True))
    z_cell = _naive_destination(state, z_sig)
    a_operand = _operand_a(state, a_sig)
    return NodePlan(a=a_operand, b=b_operand, z=z_cell)


def _naive_destination(state: TranslationState, s: Signal) -> int:
    """Destination for the naïve translator: child 3's value in a cell."""
    if s.is_const:
        address = state.alloc()
        state.emit_set_const(address, s.const_value)
        return address
    if s.inverted:
        address = state.alloc()
        label = state.cell_label(address)
        state.emit_load_compl(address, state.value_operand(s.node), f"{label} <- {state.node_label(s)}")
        return address
    if state.mig.is_gate(s.node) and state.remaining_uses[s.node] == 1:
        address = state.value_cell[s.node]
        if address == CONSUMED:
            raise CompilationError(f"node {s.node} consumed twice")
        state.value_cell[s.node] = CONSUMED
        return address
    address = state.alloc()
    label = state.cell_label(address)
    state.emit_load(address, state.value_operand(s.node), f"{label} <- {state.node_label(s)}")
    return address


# ----------------------------------------------------------------------
# candidate scheduling (paper §4.2.1) on Signal children
# ----------------------------------------------------------------------


class PriorityScheduler:
    """The paper's priority queue with event-driven key refresh.

    Keys depend on dynamic state (remaining uses of children, pending
    children of parents), so a waiting entry's key can both decay *and
    improve* while it sits in the heap.  The compiler calls
    :meth:`refresh` whenever a translation changes a candidate's context;
    the scheduler re-inserts the node under its current key and invalidates
    the old entry through a per-node version counter.
    """

    def __init__(self, key_fn):
        """``key_fn(node) -> CandidateKey`` captures the dynamic context."""
        self._key_fn = key_fn
        self._heap: list[tuple[CandidateKey, int, int]] = []
        self._version: dict[int, int] = {}

    def push(self, node: int) -> None:
        self._version[node] = 0
        heapq.heappush(self._heap, (self._key_fn(node), node, 0))

    def refresh(self, node: int) -> None:
        """Re-rank ``node`` under its current key (no-op if not queued)."""
        version = self._version.get(node)
        if version is None:
            return
        self._version[node] = version + 1
        heapq.heappush(self._heap, (self._key_fn(node), node, version + 1))

    def __contains__(self, node: int) -> bool:
        return node in self._version

    def pop(self) -> int:
        while True:
            _, node, version = heapq.heappop(self._heap)
            if self._version.get(node) == version:
                del self._version[node]
                return node
            # stale entry superseded by a refresh — skip it

    def __len__(self) -> int:
        return len(self._version)


class IndexScheduler:
    """Pops candidates in node-index (topological creation) order."""

    def __init__(self):
        self._heap: list[int] = []
        self._members: set[int] = set()

    def push(self, node: int) -> None:
        self._members.add(node)
        heapq.heappush(self._heap, node)

    def refresh(self, node: int) -> None:
        """Index order is static — nothing to refresh."""

    def __contains__(self, node: int) -> bool:
        return node in self._members

    def pop(self) -> int:
        node = heapq.heappop(self._heap)
        self._members.remove(node)
        return node

    def __len__(self) -> int:
        return len(self._heap)


def make_reference_scheduler(options, context, state, pending_children):
    """Build the candidate scheduler for one compilation run.

    ``context`` is the :class:`~repro.mig.context.AnalysisContext` of the
    graph being compiled — its cached parents and levels feed the
    priority key.  ``state.remaining_uses`` and ``pending_children`` are
    the dynamic tables the key reads at refresh time.
    """
    if options.scheduling == "index":
        return IndexScheduler()

    mig = context.mig
    parents = context.parents
    node_levels = context.levels
    # A primary output consumes its node "right above" it: model it as
    # a parent one level up, otherwise PO feeders would be deferred to
    # the end of the schedule while their children sit in live cells.
    po_fed: set[int] = {po.node for po in mig.pos() if not po.is_const}
    use_unblocks = options.unblocking_rule
    use_levels = options.level_rule

    def key_fn(node: int) -> CandidateKey:
        releasing = sum(
            1
            for child in mig.children(node)
            if mig.is_gate(child.node) and state.remaining_uses[child.node] == 1
        )
        unblocks = 0
        if use_unblocks:
            unblocks = sum(1 for p in parents[node] if pending_children[p] == 1)
        if use_levels:
            parent_levels = [node_levels[p] for p in parents[node]]
            if node in po_fed:
                parent_levels.append(node_levels[node] + 1)
        else:
            parent_levels = [0]  # constant: the level rule never fires
        return make_key(node, releasing, parent_levels, unblocks)

    return PriorityScheduler(key_fn)


# ----------------------------------------------------------------------
# the compilation loop (Algorithm 2)
# ----------------------------------------------------------------------


class ReferenceCompiler(PlimCompiler):
    """:class:`~repro.core.compiler.PlimCompiler` with the object loop.

    Graph preparation (cleanup, DFS reorder, ``reorder="best"``) and the
    timings are inherited; only the per-order Algorithm 2 loop is the
    Signal/dict one.  It ignores the cut-off ``bound`` and always compiles
    the order in full, so ``reorder="best"`` here compares two finished
    programs — the oracle for the shipped loop's early cut-off.
    """

    def _compile_ordered(self, ctx: AnalysisContext, bound=None) -> Program:
        start = perf_counter()
        mig = ctx.mig
        program = Program(
            input_cells={name: i for i, name in enumerate(mig.pi_names())},
            name=mig.name,
        )
        allocator = RramAllocator(
            first_address=mig.num_pis, policy=self.options.allocator_policy
        )
        state = TranslationState(
            ctx,
            program,
            allocator,
            complement_caching=self.options.complement_caching,
            max_work_cells=self.options.max_work_cells,
        )
        naive = self.options.operand_selection == "child_order"

        parents = ctx.parents

        computed: set[int] = {0}
        for pi in mig.pis():
            computed.add(pi.node)
        pending_children: dict[int, int] = {}
        for v in ctx.gate_order:
            pending_children[v] = sum(
                1 for c in mig.children(v) if c.node not in computed
            )
        scheduler = make_reference_scheduler(self.options, ctx, state, pending_children)
        for v in ctx.gate_order:
            if pending_children[v] == 0:
                scheduler.push(v)
        self._timings["schedule_seconds"] += perf_counter() - start

        start = perf_counter()
        translated = 0
        while len(scheduler):
            v = scheduler.pop()
            translate_node(state, v, naive=naive)
            computed.add(v)
            translated += 1
            for parent in parents[v]:
                pending_children[parent] -= 1
                if pending_children[parent] == 0:
                    scheduler.push(parent)
                elif pending_children[parent] == 1:
                    # The last missing child of `parent` just became more
                    # attractive (unblocking rule) — re-rank it if queued.
                    for sibling in mig.children(parent):
                        if sibling.node not in computed and sibling.node in scheduler:
                            scheduler.refresh(sibling.node)
            # A child whose remaining uses just dropped to 1 raises the
            # releasing count of its still-queued consumers.
            for child in mig.children(v):
                if mig.is_gate(child.node) and state.remaining_uses[child.node] == 1:
                    for consumer in parents[child.node]:
                        if consumer in scheduler:
                            scheduler.refresh(consumer)
        if translated != mig.num_gates:
            raise CompilationError(
                f"translated {translated} of {mig.num_gates} gates — cyclic or broken MIG"
            )

        self._finalize_outputs(mig, state, program)
        self._timings["translate_seconds"] += perf_counter() - start
        return program

    def _finalize_outputs(self, mig: Mig, state: TranslationState, program: Program) -> None:
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
            address = state.value_cell.get(po.node)
            if address is None or address == CONSUMED:
                raise CompilationError(
                    f"output {name!r} refers to node {po.node} whose cell was lost"
                )
            program.set_output(name, address, inverted=po.inverted)
