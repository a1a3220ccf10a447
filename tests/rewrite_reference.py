"""The whole-graph Algorithm 1, kept as the oracle for the shipped one.

This is MIG rewriting as it was before the in-place worklist engine
(:mod:`repro.core.rewriting`): every Ω axiom is a *pass* that copies the
whole graph through :func:`rebuild_with`, so one effort cycle copies the
MIG about eight times.  Passes return a fresh, dead-node-free graph and
never change the computed functions.  :func:`rewrite_reference` runs the
paper's cycle (Ω.M; Ω.D; Ω.A[; Ψ.A]; Ω.C; Ω.M; Ω.D; Ω.I(1–3); Ω.I) on
them for the ``size`` and ``depth`` objectives; the
shipped :func:`~repro.core.rewriting.rewrite_for_plim` must compute the
same functions and never end up larger or deeper
(``tests/test_rewrite_engines.py``, ``tests/test_depth_engines.py`` and
their property-test twins), and ``benchmarks/bench_rewriting.py`` /
``benchmarks/bench_depth.py`` time the two.  No third-party imports, so
the standalone benchmarks can load this module.

The passes run on any graph class with the :class:`~repro.mig.graph.Mig`
API, so the dict-core reference (``tests/graph_dict_reference.py``)
rewrites through them unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.cost import negation_cost
from repro.core.rewriting import RewriteOptions, _signature
from repro.errors import ReproError
from repro.mig.algebra import (
    _best_permutation,
    _common_pair,
    structural_keys,
)
from repro.mig.analysis import complement_histogram, depth, fanout_counts
from repro.mig.graph import Mig
from repro.mig.signal import Signal


def complement_profile(signals) -> tuple[int, int, bool]:
    """``(num_nonconst, num_complemented_nonconst, has_const)`` of a child
    triple, computed on :class:`Signal` objects (the shipped code counts
    on encodings, :meth:`Mig._profile_enc`)."""
    nonconst = 0
    complemented = 0
    has_const = False
    for s in signals:
        if s.is_const:
            has_const = True
        else:
            nonconst += 1
            if s.inverted:
                complemented += 1
    return nonconst, complemented, has_const


def rebuild_with(
    mig: Mig, gate_fn: Callable[[Mig, int, tuple[Signal, Signal, Signal]], Signal]
) -> Mig:
    """Copy ``mig`` into a fresh graph of its class, applying ``gate_fn``
    per gate.

    ``gate_fn(new_mig, old_node, mapped_children)`` must return the
    signal in ``new_mig`` that represents ``old_node``'s function — it may
    create nodes, reuse existing ones, or return a complemented signal
    (phase changes are how inverter propagation is expressed).  Only gates
    in the transitive fan-in of the outputs are visited, in
    :meth:`~repro.mig.graph.Mig.topo_gates` order.
    """
    new = type(mig)(name=mig.name)
    mapping: dict[int, Signal] = {0: Signal.CONST0}
    for pi, name in zip(mig.pis(), mig.pi_names()):
        mapping[pi.node] = new.add_pi(name)
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    live = _live_mark(mig)
    for v in mig.topo_gates():
        if not live[v]:
            continue
        ea, eb, ec = ca[v], cb[v], cc[v]
        mapped = (
            Signal(int(mapping[ea >> 1]) ^ (ea & 1)),
            Signal(int(mapping[eb >> 1]) ^ (eb & 1)),
            Signal(int(mapping[ec >> 1]) ^ (ec & 1)),
        )
        mapping[v] = gate_fn(new, v, mapped)
    for po, name in zip(mig.pos(), mig.po_names()):
        new.add_po(mapping[po.node].xor_inversion(po.inverted), name)
    return new


def _live_mark(mig: Mig) -> bytearray:
    """One byte per node slot: 1 for gates reachable from the outputs."""
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    mark = bytearray(len(mig))
    stack = [po.node for po in mig.pos()]
    while stack:
        v = stack.pop()
        if mark[v] or ca[v] < 0:
            continue
        mark[v] = 1
        stack.extend((ca[v] >> 1, cb[v] >> 1, cc[v] >> 1))
    return mark


def effective_children(mig: Mig, edge: Signal) -> Optional[tuple[Signal, Signal, Signal]]:
    """Children of the gate behind ``edge`` with Ω.I applied.

    A complemented edge to ``⟨x y z⟩`` is the same as a plain edge to
    ``⟨x̄ ȳ z̄⟩``; returning the polarity-adjusted triple lets pattern
    matchers ignore edge polarity.  Returns ``None`` if ``edge`` does not
    point at a gate.
    """
    if not mig.is_gate(edge.node):
        return None
    a, b, c = mig.children(edge.node)
    if edge.inverted:
        return (~a, ~b, ~c)
    return (a, b, c)


# ----------------------------------------------------------------------
# the Ω passes
# ----------------------------------------------------------------------


def pass_majority(mig: Mig) -> Mig:
    """Ω.M pass: resimplify and re-hash every gate, drop dead nodes.

    A plain rebuild already applies ``⟨x x z⟩ = x`` and ``⟨x x̄ z⟩ = z``
    (they are built into ``add_maj``) and merges structurally identical
    gates, which is exactly the node elimination the paper attributes to
    Ω.M in Algorithm 1.
    """
    new, _ = mig.rebuild()
    return new


def pass_commutativity(mig: Mig) -> Mig:
    """Ω.C pass: store every gate's children in translation-friendly order.

    Functionally a no-op; each gate's children are permuted to minimize
    the expected RM3 overhead of the child-order translator, with the same
    :data:`~repro.mig.algebra.SLOT_CLASSES` scores and
    :func:`~repro.mig.algebra.structural_keys` tie-break as the worklist
    engine's in-place sweep, so both settle on the same stored order even
    when their intermediate merges ordered the children differently.
    """
    fanouts = fanout_counts(mig)
    keys = structural_keys(mig)

    def slot_class(child: Signal, old_child: Signal) -> int:
        """:data:`SLOT_CLASSES` index of ``child`` (``old_child`` in ``mig``)."""
        if child.is_const:
            return 0
        if child.inverted:
            return 1
        single_gate = mig.is_gate(old_child.node) and fanouts[old_child.node] == 1
        return 2 if single_gate else 3

    def gate_fn(new: Mig, old: int, mapped):
        old_children = mig.children(old)
        index = 0
        for child, old_child in zip(mapped, old_children):
            index = 4 * index + slot_class(child, old_child)
        pairs = tuple(
            (keys[o.node], int(m) & 1) for m, o in zip(mapped, old_children)
        )
        a, b, z = _best_permutation(index, pairs)
        return new.add_maj(mapped[a], mapped[b], mapped[z])

    return rebuild_with(mig, gate_fn)


def pass_distributivity_rl(mig: Mig) -> Mig:
    """Ω.D right-to-left pass: ``⟨⟨x y u⟩ ⟨x y v⟩ z⟩ → ⟨x y ⟨u v z⟩⟩``.

    Applied only when both inner gates have a single fanout in the original
    graph, so the rewrite removes one node (the paper: "Distributivity from
    right to left also reduces the number of nodes by one").  Edge polarity
    is handled through Ω.I (:func:`effective_children`).
    """
    fanouts = fanout_counts(mig)

    def gate_fn(new: Mig, old: int, mapped):
        old_children = mig.children(old)
        # Try each unordered pair of children as the two inner gates.
        for i, j in ((0, 1), (0, 2), (1, 2)):
            gi, gj = mapped[i], mapped[j]
            oi, oj = old_children[i], old_children[j]
            if gi.node == gj.node:
                continue
            if not (mig.is_gate(oi.node) and mig.is_gate(oj.node)):
                continue
            if fanouts[oi.node] != 1 or fanouts[oj.node] != 1:
                continue
            inner_i = effective_children(new, gi)
            inner_j = effective_children(new, gj)
            if inner_i is None or inner_j is None:
                continue
            common = _common_pair(inner_i, inner_j)
            if common is None:
                continue
            (x, y), p, q = common
            k = 3 - i - j  # index of the third child
            z = mapped[k]
            inner = new.add_maj(p, q, z)
            return new.add_maj(x, y, inner)
        return new.add_maj(*mapped)

    # Pattern replacements can orphan freshly built inner gates; sweep them.
    return pass_majority(rebuild_with(mig, gate_fn))


def pass_distributivity_lr(mig: Mig) -> Mig:
    """Ω.D left-to-right pass: ``⟨x y ⟨u v z⟩⟩ → ⟨⟨x y u⟩ ⟨x y v⟩ z⟩``.

    The expanding direction; only applied when at least one of the two new
    inner gates already exists (strash hit), so the pass never grows the
    graph.  Provided for completeness of Ω.
    """
    fanouts = fanout_counts(mig)

    def gate_fn(new: Mig, old: int, mapped):
        old_children = mig.children(old)
        for k in range(3):
            g = mapped[k]
            og = old_children[k]
            if not mig.is_gate(og.node) or fanouts[og.node] != 1:
                continue
            inner = effective_children(new, g)
            if inner is None:
                continue
            u, v, z = inner
            others = [mapped[i] for i in range(3) if i != k]
            x, y = others
            before = len(new)
            left = new.add_maj(x, y, u)
            right = new.add_maj(x, y, v)
            if len(new) <= before + 1:  # at most one fresh gate: net size kept
                return new.add_maj(left, right, z)
        return new.add_maj(*mapped)

    # Pattern replacements can orphan freshly built inner gates; sweep them.
    return pass_majority(rebuild_with(mig, gate_fn))


def pass_associativity(mig: Mig) -> Mig:
    """Ω.A pass: ``⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩`` where it helps.

    The swap is accepted only when the replacement inner gate simplifies or
    structurally hashes to an existing node, i.e. when it opens a sharing or
    Ω.M opportunity (the paper's "reshaping ... which may provide further
    size reduction opportunities").
    """
    fanouts = fanout_counts(mig)

    def gate_fn(new: Mig, old: int, mapped):
        old_children = mig.children(old)
        for k in range(3):  # position of the inner gate child
            g = mapped[k]
            og = old_children[k]
            if not mig.is_gate(og.node) or fanouts[og.node] != 1:
                continue
            inner = effective_children(new, g)
            if inner is None:
                continue
            others = [mapped[i] for i in range(3) if i != k]
            for u_pos in range(2):  # which outer child is the shared u
                u = others[u_pos]
                x = others[1 - u_pos]
                if u not in inner:
                    continue
                rest = list(inner)
                rest.remove(u)
                y, z = rest
                # ⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩ — accept if ⟨y u x⟩ is free.
                before = len(new)
                swapped = new.add_maj(y, u, x)
                if len(new) == before:
                    return new.add_maj(z, u, swapped)
        return new.add_maj(*mapped)

    # Pattern replacements can orphan freshly built inner gates; sweep them.
    return pass_majority(rebuild_with(mig, gate_fn))


def pass_complementary_associativity(mig: Mig) -> Mig:
    """Ψ.A (complementary associativity): ``⟨x u ⟨y ū z⟩⟩ = ⟨x u ⟨y x z⟩⟩``.

    An inner occurrence of ``ū`` is irrelevant when ``u`` is decided at the
    outer gate, so it may be replaced by the *other* outer child.  Applied
    only when the replacement gate is free (simplifies or strash-hits), so
    the pass never grows the graph.
    """
    fanouts = fanout_counts(mig)

    def gate_fn(new: Mig, old: int, mapped):
        old_children = mig.children(old)
        for k in range(3):  # position of the inner gate child
            og = old_children[k]
            if not mig.is_gate(og.node) or fanouts[og.node] != 1:
                continue
            inner = effective_children(new, mapped[k])
            if inner is None:
                continue
            others = [mapped[i] for i in range(3) if i != k]
            for u_pos in range(2):
                u = others[u_pos]
                x = others[1 - u_pos]
                if ~u not in inner:
                    continue
                replaced = tuple(x if s == ~u else s for s in inner)
                before = len(new)
                new_inner = new.add_maj(*replaced)
                if len(new) == before:  # free: simplified or shared
                    return new.add_maj(x, u, new_inner)
        return new.add_maj(*mapped)

    # Pattern replacements can orphan freshly built inner gates; sweep them.
    return pass_majority(rebuild_with(mig, gate_fn))


def pass_associativity_depth(mig: Mig) -> Mig:
    """Ω.A pass targeting *depth*: move late signals out of deep gates.

    In ``⟨x u ⟨y u z⟩⟩`` the inner gate adds a level on top of ``z``; when
    ``z`` arrives later than ``x`` (higher topological level), the swap
    ``⟨z u ⟨y u x⟩⟩`` takes ``z`` off the inner critical path.  This is the
    depth-rewriting move of the MIG papers (Amarù et al.) restricted to
    strictly improving applications.
    """
    fanouts = fanout_counts(mig)
    new_levels: dict[int, int] = {}

    def gate_fn(new: Mig, old: int, mapped):
        def level_of(signal: Signal) -> int:
            v = signal.node
            if v not in new_levels:
                if not new.is_gate(v):
                    new_levels[v] = 0
                else:
                    new_levels[v] = 1 + max(
                        level_of(c) for c in new.children(v)
                    )
            return new_levels[v]

        old_children = mig.children(old)
        for k in range(3):  # position of the inner gate child
            og = old_children[k]
            if not mig.is_gate(og.node) or fanouts[og.node] != 1:
                continue
            inner = effective_children(new, mapped[k])
            if inner is None:
                continue
            others = [mapped[i] for i in range(3) if i != k]
            for u_pos in range(2):
                u = others[u_pos]
                x = others[1 - u_pos]
                if u not in inner:
                    continue
                rest = list(inner)
                rest.remove(u)
                # shallower inner child is y, deeper is z
                y, z = sorted(rest, key=level_of)
                before = 1 + max(level_of(x), level_of(u), 1 + max(
                    level_of(y), level_of(u), level_of(z)))
                after = 1 + max(level_of(z), level_of(u), 1 + max(
                    level_of(y), level_of(u), level_of(x)))
                if after >= before:
                    continue  # no strict depth win
                swapped = new.add_maj(y, u, x)
                return new.add_maj(z, u, swapped)
        return new.add_maj(*mapped)

    # sweep any orphaned inner gates
    return pass_majority(rebuild_with(mig, gate_fn))


def pass_push_inverters(mig: Mig, threshold: int = 2) -> Mig:
    """Unconditional Ω.I right-to-left pass.

    Every gate with at least ``threshold`` complemented non-constant
    children is replaced by its complement with all child polarities
    flipped (``⟨x̄ ȳ z̄⟩ → ¬⟨x y z⟩`` and ``⟨x̄ ȳ z⟩ → ¬⟨x y z̄⟩``), pushing
    the inversion onto the fanout edges.  Algorithm 1's final sweep uses
    ``threshold=3``.
    """

    def gate_fn(new: Mig, _old: int, mapped):
        _, inverted_nonconst, _ = complement_profile(mapped)
        if inverted_nonconst >= threshold:
            flipped = tuple(~s for s in mapped)
            return ~new.add_maj(*flipped)
        return new.add_maj(*mapped)

    return rebuild_with(mig, gate_fn)


def pass_inverter_cost_aware(mig: Mig, po_negation_cost: int = 0) -> Mig:
    """Ω.I(R→L)(1–3): benefit-checked complement pushes, PIs→POs order.

    For every gate with ≥2 complemented non-constant children, compare the
    translation cost of the gate and its fanout targets with and without
    replacing the gate by its complement.  The decision is greedy in
    topological order: flips already decided for earlier nodes are exact,
    later siblings are estimated at their current polarity.
    """
    # Parent edges (parent, child_slot) and PO polarities from the input graph.
    parent_edges: dict[int, list[tuple[int, int]]] = {v: [] for v in mig.nodes()}
    for p in mig.gates():
        for slot, child in enumerate(mig.children(p)):
            if not child.is_const:
                parent_edges[child.node].append((p, slot))
    po_polarity: dict[int, list[bool]] = {}
    for po in mig.pos():
        if not po.is_const:
            po_polarity.setdefault(po.node, []).append(po.inverted)

    flipped: dict[int, bool] = {}
    extra_cost = negation_cost

    def parent_profile(p: int) -> tuple[int, bool]:
        """Parent's complemented-child count under current flip decisions."""
        complemented = 0
        has_const = False
        for child in mig.children(p):
            if child.is_const:
                has_const = True
                continue
            polarity = child.inverted ^ flipped.get(child.node, False)
            complemented += polarity
        return complemented, has_const

    def gate_fn(new: Mig, old: int, mapped):
        num_nonconst, complemented, has_const = complement_profile(mapped)
        if complemented < 2:
            return new.add_maj(*mapped)
        # Cost at this node if we flip: complements become k - c.
        delta = extra_cost(num_nonconst - complemented, has_const) - extra_cost(
            complemented, has_const
        )
        # Cost at each fanout target: its edge to us toggles polarity.
        for p, slot in parent_edges[old]:
            c_p, const_p = parent_profile(p)
            edge = mig.children(p)[slot]
            currently_inverted = edge.inverted ^ flipped.get(old, False)
            c_p_flipped = c_p + (-1 if currently_inverted else 1)
            delta += extra_cost(c_p_flipped, const_p) - extra_cost(c_p, const_p)
        # Complemented primary outputs (only charged in honest mode).
        if po_negation_cost:
            for inverted in po_polarity.get(old, ()):
                delta += po_negation_cost * (-1 if inverted else 1)
        if delta <= 0:
            flipped[old] = True
            return ~new.add_maj(*(~s for s in mapped))
        return new.add_maj(*mapped)

    return rebuild_with(mig, gate_fn)


# ----------------------------------------------------------------------
# Algorithm 1 on the passes
# ----------------------------------------------------------------------


def rewrite_reference(mig: Mig, options: Optional[RewriteOptions] = None) -> Mig:
    """Algorithm 1 on whole-graph passes: the oracle for
    :func:`~repro.core.rewriting.rewrite_for_plim`.

    Honours every :class:`~repro.core.rewriting.RewriteOptions` knob of
    the ``"size"`` and ``"depth"`` objectives.  Other cost-model
    objectives and ``depth_budget`` (which gates on the worklist engine's
    incremental levels) have no pass form and raise
    :class:`~repro.errors.ReproError`.  ``mig`` itself is never modified.
    """
    opts = options if options is not None else RewriteOptions()
    if opts.objective not in ("size", "depth"):
        raise ReproError(
            "the reference rewriter runs only the 'size' and 'depth' "
            f"objectives, got {opts.objective!r}"
        )
    if opts.depth_budget is not None:
        raise ReproError("the reference rewriter has no depth-budget gating")
    if opts.objective == "size":
        return _rewrite_size(mig, opts)
    return _rewrite_depth(mig, opts)


def _size_cycle(mig: Mig, opts: RewriteOptions) -> Mig:
    """One Algorithm 1 effort cycle as whole-graph rebuild passes."""
    mig = pass_majority(mig)  # Ω.M
    mig = pass_distributivity_rl(mig)  # Ω.D(R→L)
    mig = pass_associativity(mig)  # Ω.A
    if opts.use_psi:
        mig = pass_complementary_associativity(mig)  # Ψ.A
    mig = pass_commutativity(mig)  # Ω.C
    mig = pass_majority(mig)  # Ω.M
    mig = pass_distributivity_rl(mig)  # Ω.D(R→L)
    mig = pass_inverter_cost_aware(mig, opts.po_negation_cost)  # Ω.I(R→L)(1–3)
    mig = pass_push_inverters(mig, threshold=3)  # Ω.I(R→L): worst case only
    return mig


def _rewrite_size(mig: Mig, opts: RewriteOptions) -> Mig:
    """The size objective: effort cycles to a fixed point, then Ω.C."""
    for _cycle in range(opts.effort):
        before = _signature(mig.num_gates, *complement_histogram(mig))
        mig = _size_cycle(mig, opts)
        after = _signature(mig.num_gates, *complement_histogram(mig))
        if opts.early_exit and after == before:
            break
    # Inverter propagation may have changed which children are complemented;
    # restore the translation-friendly child order for child-order consumers.
    return pass_commutativity(mig)


def _rewrite_depth(mig: Mig, opts: RewriteOptions) -> Mig:
    """The depth objective: ``pass_associativity_depth`` + Ω.M rounds,
    accepting only strictly depth-improving ones."""
    best = mig
    best_depth = depth(mig)
    for _ in range(opts.effort):
        candidate = pass_majority(pass_associativity_depth(best))
        candidate_depth = depth(candidate)
        if candidate_depth >= best_depth:
            break
        best, best_depth = candidate, candidate_depth
    return best
