"""Node translation (paper §4.2.2) and cell management (§4.2.3).

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

:class:`FastTranslationState` tracks, per MIG node, the cell holding its
value, an optional cell holding its *complement* ("it is remembered for
future use", Fig. 5(f)), and the number of remaining readers — when that
count reaches zero the node's cells go back to the free list (§4.2.3),
which hands them out again under the FIFO, LIFO or FRESH policy of
:data:`repro.core.compiler.POLICIES`.
:meth:`FastTranslationState.gate_step` returns the whole per-gate
translation — case analysis, allocation, emission and release — as one
closure over flat per-node lists, and the compilation loop calls it
once per gate.  Instructions go straight into
the program's flat columns with lazy comment descriptors.  Operand
encodings follow the ISA convention (:func:`repro.plim.isa.encode_operand`):
constants 0/1 are ``1``/``3``, cell ``k`` is ``2k``.

The Signal/dict translator this one replaced is kept in
``tests/compile_reference.py`` as the differential oracle;
``tests/test_compile_fast_differential.py`` and
``BENCH_plim_compile.json`` hold the two byte-identical across the
whole registry.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.errors import AllocationError, CompilationError
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


def _lost(node: int, address: int):
    """Raise for a read of ``node``'s value whose cell ``address`` is gone."""
    if address == CONSUMED:
        raise CompilationError(f"node {node}'s value cell was already overwritten")
    raise CompilationError(f"node {node} has not been computed yet")


class FastTranslationState:
    """One node order's translation: per-node cells, free list, program.

    ``value_cell``, ``compl_cell`` and ``remaining`` are lists indexed by
    node id.  Work cells are numbered from ``mig.num_pis`` on; ``in_use``
    holds the ones currently owned by a node, a temporary or an output.
    Under a ``max_work_cells`` budget the state also keeps the cells the
    current gate reads (safe from eviction) and the cached complements in
    caching order (evicted oldest first); without one it keeps neither.
    """

    __slots__ = (
        "program",
        "value_cell",
        "compl_cell",
        "remaining",
        "in_use",
        "alloc",
        "_steps",
        "_finalize",
    )

    def __init__(
        self,
        context: AnalysisContext,
        program: Program,
        *,
        complement_caching: bool = True,
        allocator_policy: str = "fifo",
        max_work_cells: Optional[int] = None,
    ):
        mig = context.mig
        n = len(mig)
        self.program = program
        self.value_cell = [NOT_COMPUTED] * n
        self.compl_cell = [NO_CELL] * n
        self.remaining = context.fresh_uses()
        self.in_use: set[int] = set()
        pi_node_names: dict[int, str] = {}
        input_cells = program.input_cells
        for pi, name in zip(mig.pis(), mig.pi_names()):
            self.value_cell[pi.node] = input_cells[name]
            pi_node_names[pi.node] = name
        program.pi_node_names = pi_node_names
        _bind(self, mig, complement_caching, allocator_policy, max_work_cells)

    def gate_step(self, naive: bool = False) -> Callable[[int], None]:
        """``step(node)``: translate one gate whose children are computed
        — the §4.2.2 case analysis, or §3's child order when ``naive`` —
        emit its RM3 instructions and release what it consumed."""
        return self._steps[naive]

    def finalize_outputs(self, fix_output_polarity: bool) -> None:
        """Record (and, with ``fix_output_polarity``, fix up) every
        output's location, then close the program's bookkeeping."""
        self._finalize(fix_output_polarity)


def _bind(state, mig, caching, policy, budget) -> None:
    """Build ``state``'s closures over local views of its tables."""
    program = state.program
    value_cell, compl_cell, remaining = state.value_cell, state.compl_cell, state.remaining
    in_use = state.in_use
    hold, drop = in_use.add, in_use.remove
    ca, cb, cc, kind = mig._ca, mig._cb, mig._cc, mig._kind
    # the program's instruction columns (Program's flat spine), appended
    # to directly on the hot loop
    put_a, put_b = program._enc_a.append, program._enc_b.append
    put_z, put_kind = program._dst.append, program._ck.append
    put_x, put_y = program._cx.append, program._cy.append
    work_cells = program.work_cells
    free: deque[int] = deque()
    reuse = policy != "fresh"
    take = free.popleft if policy == "fifo" else free.pop
    first_cell = mig.num_pis
    next_cell = first_cell
    temps: list[int] = []
    budgeted = budget is not None
    protected: set[int] = set()  # cells the current gate reads
    protect = protected.add
    compl_order: dict[int, int] = {}  # node → cached complement, oldest first

    def release(address: int) -> None:
        try:
            drop(address)
        except KeyError:
            raise AllocationError(
                f"cell {address} is not currently allocated (double free or foreign address)"
            ) from None
        free.append(address)

    def alloc() -> int:
        """A work cell; past the budget, evict the oldest unprotected
        cached complement first (or fail).  FRESH never reuses a freed
        cell, so evicting cannot help it: it fails at the budget."""
        nonlocal next_cell
        if budgeted and not (free and reuse) and next_cell - first_cell >= budget:
            for node, address in compl_order.items() if reuse else ():
                if address not in protected:
                    del compl_order[node]
                    compl_cell[node] = NO_CELL
                    release(address)
                    break
            else:
                raise CompilationError(
                    f"work-cell budget of {budget} exceeded and no "
                    "cached complement is evictable; the function needs more RRAMs"
                )
        if free and reuse:
            address = take()
        else:
            address = next_cell
            next_cell += 1
            work_cells.append(address)
        hold(address)
        if budgeted:
            protect(address)
        return address

    def emit(a: int, b: int, z: int, comment_kind: int, x: int, y: int) -> None:
        put_a(a)
        put_b(b)
        put_z(z)
        put_kind(comment_kind)
        put_x(x)
        put_y(y)

    def load(node: int, e: int) -> int:
        """A fresh cell loaded with edge ``e`` of ``node``: its value,
        or its complement when ``e`` is odd."""
        address = alloc()
        source = value_cell[node]
        if source < 0:
            _lost(node, source)
        emit(ZERO_ENC, ONE_ENC, address, COMMENT_CELL_CONST, address, 0)
        if e & 1:
            emit(ONE_ENC, source << 1, address, COMMENT_CELL_SIG, address, e)
        else:
            emit(source << 1, ZERO_ENC, address, COMMENT_CELL_SIG, address, e)
        return address

    def set_const(bit: int) -> int:
        """A fresh cell holding the constant ``bit``."""
        address = alloc()
        if bit:
            emit(ONE_ENC, ZERO_ENC, address, COMMENT_CELL_CONST, address, 1)
        else:
            emit(ZERO_ENC, ONE_ENC, address, COMMENT_CELL_CONST, address, 0)
        return address

    def complement(node: int, as_temp: bool) -> int:
        """A cell holding ``¬node``: the cached one, else a fresh load
        (cached for later readers, or released after this gate)."""
        if caching:
            address = compl_cell[node]
            if address != NO_CELL:
                if budgeted:
                    protect(address)
                return address
        address = load(node, (node << 1) | 1)
        if as_temp:
            temps.append(address)
        elif caching:
            compl_cell[node] = address
            if budgeted:
                compl_order[node] = address
        return address

    def operand_a(e: int) -> int:
        """Operand A rules (end of §4.2.2) for the remaining child."""
        if e < 2:
            # (a) constant child, complement edge folded into the value.
            return (e << 1) | 1
        node = e >> 1
        if not e & 1:
            # (b) plain child: read its value cell.
            address = value_cell[node]
            if address < 0:
                _lost(node, address)
            return address << 1
        address = compl_cell[node]
        if address != NO_CELL:
            # (c) complement already available.
            if budgeted:
                protect(address)
            return address << 1
        # (d) fabricate (and cache) the complement.
        return complement(node, not caching) << 1

    def finish(node: int, a_enc: int, b_enc: int, z: int, ea: int, eb: int, ec: int) -> None:
        """Emit the gate's RM3, then release temporaries and every child
        whose last reader this was (§4.2.3)."""
        put_a(a_enc)
        put_b(b_enc)
        put_z(z)
        put_kind(COMMENT_CELL_NODE)
        put_x(z)
        put_y(node)
        value_cell[node] = z
        if temps:
            for address in temps:
                release(address)
            temps.clear()
        for e in (ea, eb, ec):
            if e < 2:  # constant child
                continue
            child = e >> 1
            uses = remaining[child] - 1
            if uses > 0:
                remaining[child] = uses
                continue
            if uses < 0:
                raise CompilationError(f"use count of node {child} went negative")
            remaining[child] = 0
            if kind[child] == _GATE:
                address = value_cell[child]
                if address >= 0:
                    release(address)
                    value_cell[child] = CONSUMED
            address = compl_cell[child]
            if address != NO_CELL:
                compl_cell[child] = NO_CELL
                if budgeted:
                    compl_order.pop(child, None)
                release(address)

    def cases_step(node: int) -> None:
        """The paper's case analysis (Figs. 5 and 6)."""
        if budgeted:
            protected.clear()
        ea, eb, ec = children = (ca[node], cb[node], cc[node])
        # --- operand B (Fig. 5) ---------------------------------------
        complemented = (ea > 1 and ea & 1) + (eb > 1 and eb & 1) + (ec > 1 and ec & 1)
        if complemented:
            bi = -1
            if complemented > 1:
                # (b)/(d) prefer a complemented child with further readers
                # (it cannot be a destination anyway) ...
                for i in 0, 1, 2:
                    e = children[i]
                    if e > 1 and e & 1 and remaining[e >> 1] > 1:
                        bi = i
                        break
            if bi < 0:
                # (a) the single complemented child, or (e) the first one.
                bi = 0 if ea > 1 and ea & 1 else 1 if eb > 1 and eb & 1 else 2
            b_node = children[bi] >> 1
            address = value_cell[b_node]
            if address < 0:
                _lost(b_node, address)
            b_enc = address << 1
        elif ea < 2 or eb < 2 or ec < 2:
            # (c) B becomes the inverse of the constant (¬B is the constant).
            bi = 0 if ea < 2 else 1 if eb < 2 else 2
            b_enc = ONE_ENC if children[bi] == 0 else ZERO_ENC
        else:
            bi = -1
            if caching:
                # (f) a child whose complement is already stored in some cell.
                for i in 0, 1, 2:
                    address = compl_cell[children[i] >> 1]
                    if address != NO_CELL:
                        if budgeted:
                            protect(address)
                        bi = i
                        b_enc = address << 1
                        break
            if bi < 0:
                # (g) complement a multi-fanout child (excluded as
                # destination) ... (h) or, failing everything, the first.
                bi = 0
                for i in 0, 1, 2:
                    if remaining[children[i] >> 1] > 1:
                        bi = i
                        break
                b_enc = complement(children[bi] >> 1, not caching) << 1
        if bi == 0:
            r0, r1 = 1, 2
        elif bi == 1:
            r0, r1 = 0, 2
        else:
            r0, r1 = 0, 1
        e0, e1 = children[r0], children[r1]
        # --- destination Z (Fig. 6) among the two non-B children --------
        z = -1
        # (a) complemented child, last use, complement already in a cell:
        # overwrite that cell.
        for e, other in (e0, e1), (e1, e0):
            if e > 1 and e & 1:
                child = e >> 1
                if remaining[child] == 1:
                    address = compl_cell[child]
                    if address != NO_CELL:
                        compl_cell[child] = NO_CELL
                        if budgeted:
                            compl_order.pop(child, None)
                            protect(address)
                        z, a_edge = address, other
                        break
        if z < 0:
            # (b) plain gate child on its last use: overwrite its value cell.
            for e, other in (e0, e1), (e1, e0):
                if e > 1 and not e & 1:
                    child = e >> 1
                    if kind[child] == _GATE and remaining[child] == 1:
                        address = value_cell[child]
                        if address == CONSUMED:
                            raise CompilationError(f"node {child} consumed twice")
                        value_cell[child] = CONSUMED  # ownership moves to the parent
                        if budgeted:
                            protect(address)
                        z, a_edge = address, other
                        break
        if z < 0:
            if e0 < 2 or e1 < 2:
                # (c) constant child: fresh cell initialized to the constant.
                e, a_edge = (e0, e1) if e0 < 2 else (e1, e0)
                z = set_const(e)
            elif e0 & 1 or e1 & 1:
                # (d) complemented child: fresh cell loaded with its complement.
                e, a_edge = (e0, e1) if e0 & 1 else (e1, e0)
                z = load(e >> 1, e)
            else:
                # (e) plain child (multi-fanout or a primary input): copy it.
                a_edge = e1
                z = load(e0 >> 1, e0)
        finish(node, operand_a(a_edge), b_enc, z, ea, eb, ec)

    def child_order_step(node: int) -> None:
        """Naïve selection (§3): A ← child 1, B ← child 2, Z ← child 3."""
        if budgeted:
            protected.clear()
        ea, eb, ec = ca[node], cb[node], cc[node]
        # Operand B must deliver the child's value through the built-in
        # inversion: a complemented edge reads the child's plain cell, a
        # plain edge needs the complement fabricated (never cached here).
        if eb < 2:
            b_enc = ONE_ENC if eb == 0 else ZERO_ENC
        elif eb & 1:
            address = value_cell[eb >> 1]
            if address < 0:
                _lost(eb >> 1, address)
            b_enc = address << 1
        else:
            b_enc = complement(eb >> 1, True) << 1
        # Destination: child 3's value in a cell.
        child = ec >> 1
        if ec < 2:
            z = set_const(ec)
        elif ec & 1:
            z = load(child, ec)
        elif kind[child] == _GATE and remaining[child] == 1:
            z = value_cell[child]
            if z == CONSUMED:
                raise CompilationError(f"node {child} consumed twice")
            value_cell[child] = CONSUMED
        else:
            z = load(child, ec)
        finish(node, operand_a(ea), b_enc, z, ea, eb, ec)

    def finalize(fix_output_polarity: bool) -> None:
        for po, name in zip(mig.pos(), mig.po_names()):
            node = po.node
            if po.is_const:
                if name:
                    address = alloc()
                    bit = po.const_value
                    program._ctext[len(program._dst)] = name
                    if bit:
                        emit(ONE_ENC, ZERO_ENC, address, COMMENT_TARGET_CONST, 0, 1)
                    else:
                        emit(ZERO_ENC, ONE_ENC, address, COMMENT_TARGET_CONST, 0, 0)
                else:
                    address = set_const(po.const_value)
                program.set_output(name, address)
            elif po.inverted and fix_output_polarity:
                program.set_output(name, complement(node, False), inverted=False)
            else:
                address = value_cell[node]
                if address < 0:  # never computed, or consumed by a parent
                    raise CompilationError(
                        f"output {name!r} refers to node {node} whose cell was lost"
                    )
                program.set_output(name, address, inverted=po.inverted)
        program._work_cell_set.update(work_cells)
        program.version = len(program._dst)

    state.alloc = alloc
    state._steps = (cases_step, child_order_step)
    state._finalize = finalize
