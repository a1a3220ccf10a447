"""Node translation (paper §4.2.2): one MIG gate → RM3 instructions.

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

The :class:`FastTranslationState` tracks, per MIG node, the cell holding
its value, an optional cell holding its *complement* ("it is remembered
for future use", Fig. 5(f)), and the number of remaining readers — when
that count reaches zero the node's cells go back to the allocator
(§4.2.3).  Everything works directly on the graph core's flat child
encodings (``(node << 1) | complement``): per-node state lives in
``array('q')`` slabs indexed by node id, and comments are recorded as
lazy descriptors on the program spine instead of f-strings.  Operand
encodings reuse the ISA convention (:func:`repro.plim.isa.encode_operand`):
constants 0/1 are ``1``/``3``, cell ``k`` is ``2k``.

The Signal/dict translator this one replaced is kept in
``tests/compile_reference.py`` as the differential oracle;
``tests/test_compile_fast_differential.py`` and
``BENCH_plim_compile.json`` hold the two byte-identical across the
whole registry.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.core.allocator import RramAllocator
from repro.errors import CompilationError
from repro.mig.context import AnalysisContext
from repro.mig.graph import _GATE
from repro.plim.isa import ONE_ENC, ZERO_ENC
from repro.plim.program import (
    COMMENT_CELL_CONST,
    COMMENT_CELL_NODE,
    COMMENT_CELL_SIG,
    COMMENT_TARGET_CONST,
    Program,
)

#: sentinel: a node's value cell was overwritten in place by a parent
CONSUMED = -1
#: sentinel: the node has no cell yet (PIs are seeded with their input cell)
NOT_COMPUTED = -2
#: sentinel: no cached complement cell
NO_CELL = -1


class FastTranslationState:
    """Mutable state shared by all node translations of one compilation.

    Per-node state lives in ``array('q')`` columns indexed by node id; the
    insertion-ordered complement-cache mirror ``_compl_order`` is maintained
    only under a work-cell budget, where eviction order (oldest cached
    complement first) is observable.
    """

    __slots__ = (
        "context",
        "mig",
        "program",
        "allocator",
        "complement_caching",
        "max_work_cells",
        "value_cell",
        "compl_cell",
        "remaining",
        "_protected",
        "_pending_temps",
        "_compl_order",
        "_ca",
        "_cb",
        "_cc",
        "_kind",
    )

    def __init__(
        self,
        context: AnalysisContext,
        program: Program,
        allocator: RramAllocator,
        complement_caching: bool = True,
        max_work_cells: Optional[int] = None,
    ):
        mig = context.mig
        self.context = context
        self.mig = mig
        self.program = program
        self.allocator = allocator
        self.complement_caching = complement_caching
        self.max_work_cells = max_work_cells
        n = len(mig)
        self.value_cell = array("q", [NOT_COMPUTED]) * n
        self.compl_cell = array("q", [NO_CELL]) * n
        remaining = array("q", [0]) * n
        for node, uses in context.use_counts.items():
            remaining[node] = uses
        self.remaining = remaining
        self._protected: set[int] = set()
        self._pending_temps: list[int] = []
        self._compl_order: Optional[dict[int, int]] = (
            {} if max_work_cells is not None else None
        )
        self._ca = mig._ca
        self._cb = mig._cb
        self._cc = mig._cc
        self._kind = mig._kind
        pi_node_names: dict[int, str] = {}
        input_cells = program.input_cells
        for pi, name in zip(mig.pis(), mig.pi_names()):
            self.value_cell[pi.node] = input_cells[name]
            pi_node_names[pi.node] = name
        program.pi_node_names = pi_node_names

    # ------------------------------------------------------------------
    # allocation / eviction
    # ------------------------------------------------------------------

    def alloc(self) -> int:
        """Request a work cell and record it in the program's inventory.

        Under a ``max_work_cells`` budget, a fresh address past the budget
        first evicts the oldest unprotected cached complement; if nothing
        is evictable, compilation fails.
        """
        allocator = self.allocator
        if (
            self.max_work_cells is not None
            and allocator.num_free == 0
            and allocator.num_allocated >= self.max_work_cells
        ):
            self._evict_complement_cache()
        address = allocator.request()
        self.program.register_work_cell(address)
        self._protected.add(address)
        return address

    def _evict_complement_cache(self) -> None:
        """Free the oldest unprotected cached complement (or fail)."""
        protected = self._protected
        for node, address in self._compl_order.items():
            if address not in protected:
                del self._compl_order[node]
                self.compl_cell[node] = NO_CELL
                self.allocator.release(address)
                return
        raise CompilationError(
            f"work-cell budget of {self.max_work_cells} exceeded and no "
            "cached complement is evictable; the function needs more RRAMs"
        )

    def alloc_temp(self) -> int:
        address = self.alloc()
        self._pending_temps.append(address)
        return address

    def release_temps(self) -> None:
        for address in self._pending_temps:
            self.allocator.release(address)
        self._pending_temps.clear()

    # ------------------------------------------------------------------
    # emission helpers (lazy comments)
    # ------------------------------------------------------------------

    def emit_set_const(self, address: int, bit: int, target: Optional[str] = None) -> None:
        program = self.program
        if target:
            if bit:
                program.append_encoded(
                    ONE_ENC, ZERO_ENC, address, COMMENT_TARGET_CONST, 0, 1, target
                )
            else:
                program.append_encoded(
                    ZERO_ENC, ONE_ENC, address, COMMENT_TARGET_CONST, 0, 0, target
                )
        elif bit:
            program.append_encoded(
                ONE_ENC, ZERO_ENC, address, COMMENT_CELL_CONST, address, 1
            )
        else:
            program.append_encoded(
                ZERO_ENC, ONE_ENC, address, COMMENT_CELL_CONST, address, 0
            )

    def emit_load(self, address: int, source_enc: int, signal_enc: int) -> None:
        """``X ← source`` (clear, then load); comment ``label <- signal``."""
        self.emit_set_const(address, 0)
        self.program.append_encoded(
            source_enc, ZERO_ENC, address, COMMENT_CELL_SIG, address, signal_enc
        )

    def emit_load_compl(self, address: int, source_enc: int, signal_enc: int) -> None:
        """``X ← ¬source`` (clear, then inverted load)."""
        self.emit_set_const(address, 0)
        self.program.append_encoded(
            ONE_ENC, source_enc, address, COMMENT_CELL_SIG, address, signal_enc
        )

    # ------------------------------------------------------------------
    # value access
    # ------------------------------------------------------------------

    def value_operand_enc(self, node: int) -> int:
        """Encoded operand reading ``node``'s plain value from its cell."""
        address = self.value_cell[node]
        if address == CONSUMED:
            raise CompilationError(f"node {node}'s value cell was already overwritten")
        if address == NOT_COMPUTED:
            raise CompilationError(f"node {node} has not been computed yet")
        return address << 1

    def materialize_complement(self, node: int, as_temp: bool = False) -> int:
        """Ensure a cell holds ``¬node``; returns its address."""
        if self.complement_caching:
            cached = self.compl_cell[node]
            if cached != NO_CELL:
                self._protected.add(cached)
                return cached
        address = self.alloc_temp() if as_temp else self.alloc()
        self.emit_load_compl(address, self.value_operand_enc(node), (node << 1) | 1)
        if self.complement_caching and not as_temp:
            self.compl_cell[node] = address
            if self._compl_order is not None:
                self._compl_order[node] = address
        return address

    # ------------------------------------------------------------------
    # reference counting / release (paper §4.2.3)
    # ------------------------------------------------------------------

    def consume_children(self, node: int) -> None:
        remaining = self.remaining
        for enc in (self._ca[node], self._cb[node], self._cc[node]):
            if enc < 2:  # constant child
                continue
            child = enc >> 1
            uses = remaining[child] - 1
            if uses < 0:
                raise CompilationError(f"use count of node {child} went negative")
            remaining[child] = uses
            if uses == 0:
                self._release_node(child)

    def _release_node(self, node: int) -> None:
        if self._kind[node] == _GATE:
            address = self.value_cell[node]
            if address >= 0:
                self.allocator.release(address)
                self.value_cell[node] = CONSUMED
        compl = self.compl_cell[node]
        if compl != NO_CELL:
            self.compl_cell[node] = NO_CELL
            if self._compl_order is not None:
                self._compl_order.pop(node, None)
            self.allocator.release(compl)


def translate_node_fast(state: FastTranslationState, node: int, naive: bool = False) -> None:
    """Translate one gate into RM3 instructions (§4.2.2 or naïve §3)."""
    state._protected.clear()
    ea, eb, ec = state._ca[node], state._cb[node], state._cc[node]
    if naive:
        a_enc, b_enc, z = _plan_child_order(state, ea, eb, ec)
    else:
        a_enc, b_enc, z = _plan_cases(state, ea, eb, ec)
    state.program.append_encoded(a_enc, b_enc, z, COMMENT_CELL_NODE, z, node)
    state.value_cell[node] = z
    state.release_temps()
    state.consume_children(node)


# ----------------------------------------------------------------------
# the paper's case analysis (Figs. 5 and 6), on raw encodings
# ----------------------------------------------------------------------


def _plan_cases(state: FastTranslationState, ea: int, eb: int, ec: int):
    children = (ea, eb, ec)
    b_index, b_enc = _select_operand_b(state, children)
    if b_index == 0:
        r0, r1 = 1, 2
    elif b_index == 1:
        r0, r1 = 0, 2
    else:
        r0, r1 = 0, 1
    z_index, z = _select_destination(state, children, r0, r1)
    a_enc = _operand_a(state, children[r1 if z_index == r0 else r0])
    return a_enc, b_enc, z


def _select_operand_b(state: FastTranslationState, children) -> tuple[int, int]:
    """Fig. 5: choose the child that enters the majority complemented."""
    remaining = state.remaining
    complemented: list[int] = []  # child indices, encoding order preserved
    plain: list[int] = []
    const_index = -1
    for i in range(3):
        e = children[i]
        if e < 2:
            if const_index < 0:
                const_index = i
        elif e & 1:
            complemented.append(i)
        else:
            plain.append(i)

    if len(complemented) == 1:
        # (a) ideal case: the single complemented child.
        i = complemented[0]
        return i, state.value_operand_enc(children[i] >> 1)
    if len(complemented) >= 2:
        # (b)/(d) prefer a complemented child with further readers (it
        # cannot be a destination anyway) ...
        for i in complemented:
            if remaining[children[i] >> 1] > 1:
                return i, state.value_operand_enc(children[i] >> 1)
        # (e) ... otherwise the first complemented child.
        i = complemented[0]
        return i, state.value_operand_enc(children[i] >> 1)
    # No complemented child from here on.
    if const_index >= 0:
        # (c) B becomes the inverse of the constant (¬B is the constant).
        return const_index, ONE_ENC if children[const_index] == 0 else ZERO_ENC
    if state.complement_caching:
        # (f) a child whose complement is already stored in some cell.
        compl_cell = state.compl_cell
        for i in plain:
            address = compl_cell[children[i] >> 1]
            if address != NO_CELL:
                state._protected.add(address)
                return i, address << 1
    # (g) complement a multi-fanout child (excluded as destination) ...
    as_temp = not state.complement_caching
    for i in plain:
        if remaining[children[i] >> 1] > 1:
            return i, state.materialize_complement(children[i] >> 1, as_temp=as_temp) << 1
    # (h) ... or, failing everything, the first child.
    i = plain[0]
    return i, state.materialize_complement(children[i] >> 1, as_temp=as_temp) << 1


def _select_destination(
    state: FastTranslationState, children, r0: int, r1: int
) -> tuple[int, int]:
    """Fig. 6: choose the destination cell Z among the two non-B children."""
    remaining = state.remaining
    compl_cell = state.compl_cell
    # (a) complemented child, last use, complement already in a cell:
    # overwrite that cell.
    for i in (r0, r1):
        e = children[i]
        if e < 2 or not e & 1:
            continue
        node = e >> 1
        if remaining[node] == 1:
            address = compl_cell[node]
            if address != NO_CELL:
                compl_cell[node] = NO_CELL
                if state._compl_order is not None:
                    state._compl_order.pop(node, None)
                state._protected.add(address)
                return i, address
    # (b) plain gate child on its last use: overwrite its value cell.
    kind = state._kind
    for i in (r0, r1):
        e = children[i]
        if e < 2 or e & 1:
            continue
        node = e >> 1
        if kind[node] == _GATE and remaining[node] == 1:
            address = state.value_cell[node]
            if address == CONSUMED:
                raise CompilationError(f"node {node} consumed twice")
            state.value_cell[node] = CONSUMED  # ownership moves to the parent
            state._protected.add(address)
            return i, address
    # (c) constant child: fresh cell initialized to the constant.
    for i in (r0, r1):
        e = children[i]
        if e < 2:
            address = state.alloc()
            state.emit_set_const(address, e)
            return i, address
    # (d) complemented child: fresh cell loaded with its complement.
    for i in (r0, r1):
        e = children[i]
        if e & 1:
            address = state.alloc()
            state.emit_load_compl(address, state.value_operand_enc(e >> 1), e)
            return i, address
    # (e) plain child (multi-fanout or a primary input): copy its value.
    e = children[r0]
    address = state.alloc()
    state.emit_load(address, state.value_operand_enc(e >> 1), e)
    return r0, address


def _operand_a(state: FastTranslationState, e: int) -> int:
    """Operand A rules (end of §4.2.2) for the remaining child."""
    if e < 2:
        # (a) constant child, complement edge folded into the value.
        return (e << 1) | 1
    node = e >> 1
    if not e & 1:
        # (b) plain child: read its value cell.
        return state.value_operand_enc(node)
    address = state.compl_cell[node]
    if address != NO_CELL:
        # (c) complement already available.
        state._protected.add(address)
        return address << 1
    # (d) fabricate (and cache) the complement.
    return state.materialize_complement(node, as_temp=not state.complement_caching) << 1


# ----------------------------------------------------------------------
# naïve child-order selection (paper §3)
# ----------------------------------------------------------------------


def _plan_child_order(state: FastTranslationState, ea: int, eb: int, ec: int):
    """Operands in child order: A ← child 1, B ← child 2, Z ← child 3."""
    # Operand B must deliver the child's value through the built-in
    # inversion: a complemented edge reads the child's plain cell, a plain
    # edge needs the complement fabricated (never cached in naïve mode).
    if eb < 2:
        b_enc = ONE_ENC if eb == 0 else ZERO_ENC
    elif eb & 1:
        b_enc = state.value_operand_enc(eb >> 1)
    else:
        b_enc = state.materialize_complement(eb >> 1, as_temp=True) << 1
    z = _naive_destination(state, ec)
    a_enc = _operand_a(state, ea)
    return a_enc, b_enc, z


def _naive_destination(state: FastTranslationState, e: int) -> int:
    """Destination for the naïve translator: child 3's value in a cell."""
    if e < 2:
        address = state.alloc()
        state.emit_set_const(address, e)
        return address
    node = e >> 1
    if e & 1:
        address = state.alloc()
        state.emit_load_compl(address, state.value_operand_enc(node), e)
        return address
    if state._kind[node] == _GATE and state.remaining[node] == 1:
        address = state.value_cell[node]
        if address == CONSUMED:
            raise CompilationError(f"node {node} consumed twice")
        state.value_cell[node] = CONSUMED
        return address
    address = state.alloc()
    state.emit_load(address, state.value_operand_enc(node), e)
    return address
