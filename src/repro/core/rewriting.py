"""MIG rewriting for the PLiM architecture (paper §4.1, Algorithm 1).

The algorithm runs as an in-place worklist sweep over one mutable graph:
each phase of an effort cycle visits every live gate once in topological
order and applies its Ω rules locally through
:meth:`~repro.mig.graph.Mig.replace_node`, matching and building on raw
child encodings.  The fixed-point signature is maintained incrementally
(O(1) per check), and dead-node compaction is deferred to a single final
cleanup.

Each effort cycle applies, in the paper's order:

1. ``Ω.M`` — majority-rule node elimination (built into every edit: no
   live gate is ever Ω.M-reducible, so no phase visits for it),
2. ``Ω.D(R→L)`` — distributivity right-to-left (removes one node),
3. ``Ω.A; Ω.C`` — associativity/commutativity reshaping,
4. ``Ω.M; Ω.D(R→L)`` — elimination again on the reshaped graph,
5. ``Ω.I(R→L)(1–3)`` — *cost-aware* inverter propagation: a gate with two
   or three complemented children is replaced by its complement (pushing
   one inversion onto each fanout edge) when the local cost balance —
   fewer negations here vs. possibly more at the fanout targets — does not
   get worse ("transferring a complemented edge can be also unfavorable if
   the target node already has a single complemented edge"),
6. ``Ω.I(R→L)`` — a final unconditional sweep "to ensure the most costly
   case is eliminated".

The cost balance uses the §4.2.2-derived model in :mod:`repro.core.cost`:
one missing/extra negation is two instructions and one RRAM.  Complemented
primary outputs are free in the paper's accounting; when the compiler runs
with ``fix_output_polarity`` they cost 2 instructions each, which
``RewriteOptions.po_negation_cost`` feeds into the balance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # import cycle: cache deserialization reaches back here
    from repro.core.cache import SynthesisCache
    from repro.plim.program import Program

from repro.core.cost import (
    COST_MODELS,
    CompiledPlim,
    CostModel,
    CostReport,
    estimate_from_histogram,
    negation_cost,
    resolve_cost_model,
)
from repro.errors import MigError, ReproError
from repro.mig.algebra import (
    UNIQUE_PERMUTATION,
    _best_permutation,
    _leaf_keys,
    flip_complement,
    try_associativity,
    try_associativity_depth,
    try_complementary_associativity,
    try_distributivity_rl,
)
from repro.mig.analysis import complement_histogram
from repro.mig.graph import Mig


#: the Algorithm 1 engines ``RewriteOptions.engine`` accepts
ENGINES = ("worklist",)


@dataclass(frozen=True)
class RewriteOptions:
    """Knobs of Algorithm 1 (all fields have sensible defaults).

    Example:

        >>> from repro import RewriteOptions
        >>> RewriteOptions().objective, RewriteOptions().engine
        ('size', 'worklist')
        >>> RewriteOptions(objective="size", depth_budget=12).depth_budget
        12
    """

    #: number of rewriting cycles (the paper's experiments use 4; 0 runs
    #: none, leaving the cleanup copy and the closing Ω.C)
    effort: int = 4
    #: cost charged per complemented primary output (0 = paper accounting)
    po_negation_cost: int = 0
    #: stop early once a cycle reaches a fixed point
    early_exit: bool = True
    #: also apply the derived Ψ.A rule (complementary associativity) in the
    #: reshaping step — not part of the paper's Algorithm 1, but part of
    #: the MIG algebra's derived rule set and strictly size-safe
    use_psi: bool = False
    #: the Algorithm 1 engine; "worklist" (in-place, incremental) is the
    #: only one, and the field stays because its repr is part of every
    #: rewrite cache key
    engine: str = "worklist"
    #: optimization target, a :data:`~repro.core.cost.COST_MODELS` name.
    #: "size" is the paper's Algorithm 1 (serial PLiM programs only care
    #: about node count), "depth" runs critical-path Ω.A swaps only
    #: (parallel in-memory targets), and "static-plim" and "plim" run the
    #: guided measure-and-select driver against their model's objective
    objective: str = "size"
    #: hard depth ceiling for size rewriting: size rules reject any
    #: candidate that could push a primary-output level past the budget,
    #: so ``objective="size"`` can shrink the graph without deepening it
    #: beyond ``depth_budget`` levels.
    #: ``None`` (the default) places no ceiling.  A budget below the input
    #: MIG's depth is infeasible and raises
    #: :class:`~repro.errors.MigError`.
    depth_budget: Optional[int] = None

    def __post_init__(self) -> None:
        effort = self.effort
        # bool is an int subclass: effort=True must not pass as 1
        if isinstance(effort, bool) or not isinstance(effort, int) or effort < 0:
            raise ReproError(
                f"rewrite effort must be a non-negative integer, got {effort!r}"
            )
        if self.engine not in ENGINES:
            raise ReproError(
                f"unknown rewrite engine {self.engine!r}; expected one of {ENGINES}"
            )
        objective = self.objective
        if not (isinstance(objective, str) and objective in COST_MODELS):
            raise ReproError(
                f"unknown rewrite objective {objective!r}; expected one of "
                f"{tuple(COST_MODELS)}"
            )


def rewrite_for_plim(
    mig: Mig,
    options: Optional[RewriteOptions] = None,
    *,
    cache: "Optional[SynthesisCache]" = None,
) -> Mig:
    """Run MIG rewriting on ``mig`` and return the rewritten MIG.

    ``options.objective`` picks the target: ``"size"`` is the paper's
    Algorithm 1, ``"depth"`` the critical-path rewriter, ``"static-plim"``
    and ``"plim"`` the guided measure-and-select loop.
    ``options.depth_budget`` puts a hard depth ceiling under size
    rewriting (a budget below the input's depth raises
    :class:`~repro.errors.MigError`).  ``mig`` itself is never modified,
    whichever objective runs.

    ``cache`` is an optional :class:`~repro.core.cache.SynthesisCache`:
    the result is memoized under ``(mig.fingerprint(), options)``, so a
    repeated rewrite of a structurally identical input — regardless of its
    gate-creation order — is a lookup instead of a recomputation.

    Example — ``⟨a b ⟨a b c⟩⟩`` collapses to ``⟨a b c⟩`` (Ω.A + Ω.M),
    with or without a depth budget:

        >>> from repro import Mig, RewriteOptions, rewrite_for_plim
        >>> m = Mig()
        >>> a, b, c = m.add_pi("a"), m.add_pi("b"), m.add_pi("c")
        >>> _ = m.add_po(m.add_maj(a, b, m.add_maj(a, b, c)), "f")
        >>> m.num_gates, rewrite_for_plim(m).num_gates
        (2, 1)
        >>> rewrite_for_plim(m, RewriteOptions(depth_budget=2)).num_gates
        1

    Example — ``objective="depth"`` swaps a late-arriving signal off the
    critical path:

        >>> from repro.mig.analysis import depth
        >>> m = Mig()
        >>> a, b, c, d, e, f = (m.add_pi(n) for n in "abcdef")
        >>> deep = m.add_maj(a, b, c)                       # level 1
        >>> _ = m.add_po(m.add_maj(f, d, m.add_maj(e, d, deep)), "y")
        >>> depth(m), depth(rewrite_for_plim(m, RewriteOptions(objective="depth")))
        (3, 2)
    """
    opts = options if options is not None else RewriteOptions()
    if opts.depth_budget is not None:
        if opts.depth_budget < 0:
            raise ReproError(
                f"depth_budget must be non-negative, got {opts.depth_budget}"
            )
        if opts.objective == "depth":
            raise ReproError(
                "depth_budget does not apply to objective='depth', which "
                "already minimizes depth"
            )
    fingerprint = None
    if cache is not None:
        fingerprint = mig.fingerprint()
        hit = cache.get_rewrite(fingerprint, opts)
        if hit is not None:
            return hit
    if opts.objective == "size":
        result = _rewrite_worklist(mig, opts)
    elif opts.objective == "depth":
        result = _rewrite_depth_worklist(mig, opts)
    else:
        model = resolve_cost_model(opts.objective)
        result = _guided_search(mig, opts, model, cache=cache)[0]
    if cache is not None:
        cache.put_rewrite(fingerprint, opts, result)
    return result


def _signature(
    num_gates: int, hist: tuple[int, int, int, int], zero_comp_no_const: int
) -> tuple:
    """Cheap fixed-point detector for the effort loop.

    ``(gate count, complemented-child histogram, instruction estimate)``
    from the counters of :func:`~repro.mig.analysis.complement_histogram`
    (one traversal) or :meth:`~repro.mig.graph.Mig.inplace_signature`
    (maintained incrementally, O(1)).
    """
    return (
        num_gates,
        hist,
        estimate_from_histogram(num_gates, hist, zero_comp_no_const),
    )


# ----------------------------------------------------------------------
# the worklist engine
# ----------------------------------------------------------------------


def _rewrite_worklist(mig: Mig, opts: RewriteOptions) -> Mig:
    """Algorithm 1 as one incremental sweep per effort cycle.

    Works on a private dead-free copy of ``mig`` with in-place maintenance
    enabled (:meth:`~repro.mig.graph.Mig._rebuild_inplace`, one pass);
    one final compaction drops the tombstones and restores a
    creation-order index, and the closing Ω.C sweep restores the
    translation-friendly child order.
    """
    work = mig._rebuild_inplace()  # private copy; also the initial Ω.M cleanup
    if opts.depth_budget is not None:
        work.enable_levels()
        _check_budget_feasible(work, opts.depth_budget)
    # the edit count right after the last cycle's Ω.C sweep (None: effort 0)
    swept = None
    d_stamp = -1  # shape version at the start of the last Ω.D
    hist = work._hist
    for cycle in range(opts.effort):
        before = _signature(*work.inplace_signature()) if cycle else None
        swept, d_stamp = _worklist_size_sweep(work, opts, d_stamp)
        # Each inverter sweep acts only on gates with at least 2 (3)
        # complemented non-constant children, which the maintained
        # histogram counts (no reservation is pending after Ω.D).
        if hist[2] or hist[3]:
            _sweep_inverters_cost_aware(work, opts.po_negation_cost)
        if hist[3]:
            _sweep_push_inverters(work, threshold=3)
        if not opts.early_exit:
            continue
        after = _signature(*work.inplace_signature())
        if cycle == 0 and after[0] == mig.num_gates:
            # Cycle 0 measures the fixed point against the *raw* input: a
            # first cycle that only cleans up or reshapes (no count change
            # against the cleaned graph) must not exit early, because
            # reshaping feeds the next cycle's Ω.D.  The input's signature
            # is a full traversal, and only a gate-count tie can match it.
            before = _signature(mig.num_gates, *complement_histogram(mig))
        if after == before:
            break
    # Inverter propagation may have changed which children are complemented;
    # restore the translation-friendly child order (Ω.C) in place — unless
    # nothing was edited since the cycle's own Ω.C, which is idempotent —
    # then drop the tombstones.  Every live gate is Ω.M-irreducible and
    # owns its strash key here, so renumbering is all the final copy has
    # to do.
    if swept != work.edit_count:
        _sweep_commutativity(work)
    return work.compact()


def _check_budget_feasible(work: Mig, depth_budget: int) -> None:
    """Raise :class:`MigError` when ``work`` already violates the budget.

    Size rules can only *keep* PO levels under the ceiling — they cannot
    drive an over-budget graph back under it — so a budget below the
    (cleaned) input's depth is rejected up front.  Callers who need a
    tighter depth first should run ``objective="depth"`` rewriting and
    budget the result (which is what :func:`repro.core.pareto.pareto_sweep`
    does per sweep point).
    """
    current = work.current_depth()
    if current > depth_budget:
        raise MigError(
            f"depth budget {depth_budget} is infeasible: the input MIG has "
            f"depth {current}; rewrite with objective='depth' first or "
            f"raise the budget"
        )


def _worklist_size_sweep(
    work: Mig, opts: RewriteOptions, d_stamp: int
) -> tuple[int, int]:
    """One size-rule cycle: the paper's Ω.M; Ω.D; Ω.A[; Ψ.A]; Ω.C; Ω.M; Ω.D.

    Each phase visits every live gate once in topological order and
    applies its rules locally.  Ω.M needs no visit of its own: rules build
    through ``add_maj_enc``, which simplifies, and ``replace_node``
    cascades every collapse and strash merge through the parents, so no
    live gate is ever Ω.M-reducible and every phase is also an Ω.M pass.
    All Ω.D applications run before any Ω.A reshaping, with the Ω.C
    reorder in between — the paper's phase order, which fixes the search
    order and therefore the result.

    With ``opts.depth_budget`` set (level-maintained graphs only), every
    phase gates its candidates so no primary-output level can exceed the
    budget — size rewriting under a hard depth ceiling.

    An Ω.D is skipped when no node was created, rewired, killed or
    materialized since the previous Ω.D started (an unchanged shape
    stamp, which also means that Ω.D fired nothing): Ω.C only permutes
    stored order, and Ω.D's fire test reads child sets, so it would
    fire nowhere that one did not.  ``d_stamp`` is the stamp of the
    previous cycle's last Ω.D (``-1`` before the first cycle).  Returns
    the edit count right after the Ω.C sweep and this cycle's stamp.
    """
    budget = opts.depth_budget
    shape = work._shape_version
    if budget is not None or shape != d_stamp:
        _distributivity_phase(work, budget)
    _reshaping_phase(work, opts.use_psi, budget)
    # Rejected reshaping candidates stay reserved as speculative gates
    # (they seed sharing within the phase); drop them, and sweep the ones
    # a hit or commit materialized, at the phase boundary.
    work.collect_unused()
    _sweep_commutativity(work)
    swept = work.edit_count
    start = work._shape_version
    if budget is not None or start != shape:
        _distributivity_phase(work, budget)
    return swept, start


def _single_fanout_table(work: Mig, fanouts: list[int]) -> bytearray:
    """One byte per node of the phase's fanout snapshot: 1 for a gate
    with a single reader.  (Children of a live gate are never dead, so
    "gate" needs no live test.)"""
    single = bytearray(map((1).__eq__, fanouts))
    single[0] = 0
    for pi in work._pi_ids:
        single[pi] = 0
    return single


#: the polarity-adjusted triple of a child that cannot be an Ω.D inner gate
_NO_TRIPLE = frozenset()


def _distributivity_phase(work: Mig, depth_budget: Optional[int]) -> None:
    """Ω.D(R→L) over every live gate, in topological order.

    The rule's whole test runs inline, and the rule only on gates that
    pass it: two children must be single-fanout gates (read from
    :func:`_single_fanout_table`; a node created during the phase counts
    as a candidate, and the rule reads its live fanout) whose
    polarity-adjusted triples share two signals.  The children of an
    Ω.M-irreducible gate are distinct, so a set intersection is the
    rule's multiset match.
    """
    ca, cb, cc = work._ca, work._cb, work._cc
    fanouts = work.fanout_snapshot()
    single = _single_fanout_table(work, fanouts)
    for v in list(work.topo_gates()):
        ea = ca[v]
        if ea < 0:  # retired by an earlier rewrite's cascade
            continue
        eb, ec = cb[v], cc[v]
        a, b, c = ea >> 1, eb >> 1, ec >> 1
        if single[a] + single[b] + single[c] < 2:
            continue
        p = ea & 1
        x = {ca[a] ^ p, cb[a] ^ p, cc[a] ^ p} if single[a] else _NO_TRIPLE
        p = eb & 1
        y = {ca[b] ^ p, cb[b] ^ p, cc[b] ^ p} if single[b] else _NO_TRIPLE
        p = ec & 1
        z = {ca[c] ^ p, cb[c] ^ p, cc[c] ^ p} if single[c] else _NO_TRIPLE
        if len(x & y) < 2 and len(x & z) < 2 and len(y & z) < 2:
            continue
        try_distributivity_rl(work, v, fanouts, depth_budget)
        if len(ca) > len(single):
            single.extend(b"\x01" * (len(ca) - len(single)))


def _reshaping_phase(work: Mig, use_psi: bool, depth_budget: Optional[int]) -> None:
    """Ω.A (and, with ``use_psi``, Ψ.A) over every live gate, in
    topological order.

    The rules' shared early reject runs inline: some single-fanout gate
    child's inner triple, seen through the child's edge polarity, must
    contain one of the other two children — as is for Ω.A, or
    complemented for Ψ.A (so with Ψ.A on, the test compares nodes).  The
    rules run, in order, only on gates that pass it, and the first that
    fires (returns ``True``: ``v`` is retired) ends the visit.
    """
    rules = (try_associativity,)
    if use_psi:
        rules += (try_complementary_associativity,)
    # OR-ing the polarity bit in makes a child match either polarity
    either = 1 if use_psi else 0
    ca, cb, cc = work._ca, work._cb, work._cc
    fanouts = work.fanout_snapshot()
    single = _single_fanout_table(work, fanouts)
    for v in list(work.topo_gates()):
        ea = ca[v]
        if ea < 0:  # retired by an earlier rewrite's cascade
            continue
        eb, ec = cb[v], cc[v]
        # child n on an edge of polarity p: x is in n's polarity-adjusted
        # triple iff x ^ p is in n's stored one (unrolled: the hot loop)
        candidate = False
        n = ea >> 1
        if single[n]:
            p = ea & 1
            inner = (ca[n] | either, cb[n] | either, cc[n] | either)
            candidate = ((eb ^ p) | either) in inner or ((ec ^ p) | either) in inner
        n = eb >> 1
        if not candidate and single[n]:
            p = eb & 1
            inner = (ca[n] | either, cb[n] | either, cc[n] | either)
            candidate = ((ea ^ p) | either) in inner or ((ec ^ p) | either) in inner
        n = ec >> 1
        if not candidate and single[n]:
            p = ec & 1
            inner = (ca[n] | either, cb[n] | either, cc[n] | either)
            candidate = ((ea ^ p) | either) in inner or ((eb ^ p) | either) in inner
        if not candidate:
            continue
        for rule in rules:
            if rule(work, v, fanouts, depth_budget):
                break
        if len(ca) > len(single):
            single.extend(b"\x01" * (len(ca) - len(single)))


def _sweep_commutativity(work: Mig) -> None:
    """In-place Ω.C: store every gate's children in translation-friendly order.

    Functionally a no-op, but the stored order is what a child-order
    translator consumes (the paper's §3 naïve scheme); each gate's children
    are permuted to minimize its expected RM3 overhead, scored per slot by
    :data:`~repro.mig.algebra.SLOT_CLASSES`.  This is the piece of
    Algorithm 1 that lets plain *rewriting* (Table 1, third column)
    already shrink programs without smart per-node selection.

    Purely a stored-order change (the strash key is order-insensitive), so
    no worklist is needed — one linear sweep suffices.  The sweep computes
    the :func:`~repro.mig.algebra.structural_keys` tie-break keys in the
    same topological pass (a reorder never changes a key), reads each
    child's :data:`~repro.mig.algebra.SLOT_CLASSES` index from a per-sweep
    table (a reorder never changes a fanout either), and takes the
    permutation from :data:`~repro.mig.algebra.UNIQUE_PERMUTATION`; only
    score ties go to :func:`~repro.mig.algebra._best_permutation` and its
    structural-key tie-break.
    """
    keys = _leaf_keys(work)
    ca, cb, cc = work._ca, work._cb, work._cc
    child_class = _child_class_table(work)
    unique = UNIQUE_PERMUTATION
    for v in list(work.topo_gates()):
        ea = ca[v]
        if ea < 0:
            continue
        eb, ec = cb[v], cc[v]
        ka, kb, kc = keys[ea >> 1], keys[eb >> 1], keys[ec >> 1]
        pa, pb, pc = ea & 1, eb & 1, ec & 1
        index = 16 * child_class[ea] + 4 * child_class[eb] + child_class[ec]
        perm = unique[index]
        if perm is None:
            perm = _best_permutation(index, ((ka, pa), (kb, pb), (kc, pc)))
        enc = (ea, eb, ec)
        a, b, z = perm
        if (enc[a], enc[b], enc[z]) != enc:
            work.reorder_children_enc(v, enc[a], enc[b], enc[z])
        # the structural key, as structural_keys computes it
        if ka > kb or (ka == kb and pa > pb):
            ka, kb, pa, pb = kb, ka, pb, pa
        if kb > kc or (kb == kc and pb > pc):
            kb, kc, pb, pc = kc, kb, pc, pb
            if ka > kb or (ka == kb and pa > pb):
                ka, kb, pa, pb = kb, ka, pb, pa
        keys[v] = hash((3, ka, pa, kb, pb, kc, pc))


#: plain-child Ω.C class by "has exactly one reader": 2 (single-fanout
#: gate) for 1, else 3 — the constant and PIs are fixed up per table
_PLAIN_CLASS = bytes([3, 2] + [3] * 254)


def _child_class_table(work: Mig) -> bytearray:
    """:data:`~repro.mig.algebra.SLOT_CLASSES` index of every child
    encoding: 0 for the constant, 1 for a complemented edge, 2 for a
    plain edge to a single-fanout gate, 3 for any other plain edge."""
    plain = bytearray(map((1).__eq__, work._refs)).translate(_PLAIN_CLASS)
    for pi in work._pi_ids:
        plain[pi] = 3
    plain[0] = 0
    table = bytearray(2 * len(plain))
    table[0::2] = plain
    table[1::2] = b"\x01" * len(plain)
    table[1] = 0
    return table


def _sweep_inverters_cost_aware(work: Mig, po_negation_cost: int = 0) -> None:
    """In-place Ω.I(R→L)(1–3): benefit-checked flips, children before parents.

    For every gate with ≥2 complemented non-constant children, compare the
    translation cost of the gate and its fanout targets with and without
    replacing the gate by its complement.  The decision is greedy: flips
    already applied to earlier (topologically lower) nodes are exact, later
    siblings are estimated at their current polarity — which is simply the
    current in-place state.  The flip balance consults the static model's
    :func:`~repro.core.cost.negation_cost` (it *is* the per-node
    :class:`~repro.core.cost.StaticPlim` objective, restricted to the
    touched nodes), tabulated once per sweep.
    """
    # extra[c][has_const]: negation cost of c complemented non-constant
    # children (c + 1 covers a parent whose edge to us becomes complemented)
    extra = [[negation_cost(c, False), negation_cost(c, True)] for c in range(4)]
    order = list(work.topo_gates())
    position = {v: i for i, v in enumerate(order)}
    evicted: set[int] = set()
    ca, cb, cc = work._ca, work._cb, work._cc  # encoding views, hot sweep
    parents = work._parents
    po_of = work._po_of
    pos = work._pos
    for v in order:
        ea = ca[v]
        if ea < 0:  # replaced by an earlier flip's cascade
            continue
        eb, ec = cb[v], cc[v]
        complemented = (ea > 1 and ea & 1) + (eb > 1 and eb & 1) + (ec > 1 and ec & 1)
        if complemented < 2:
            if v in evicted:
                _visit_for_flip(work, v, False, position, evicted)
            continue
        has_const = ea < 2 or eb < 2 or ec < 2
        num_nonconst = (ea > 1) + (eb > 1) + (ec > 1)
        # Cost at this node if we flip: complements become k - c.
        delta = extra[num_nonconst - complemented][has_const] - extra[complemented][has_const]
        # Cost at each fanout target: its edge to us toggles polarity.
        for p in parents[v]:
            pa = ca[p]
            if pa < 0:  # retired parent
                continue
            pb, pc = cb[p], cc[p]
            c_p, const_p = Mig._profile_enc(pa, pb, pc)
            p_extra = extra[c_p]
            for edge in (pa, pb, pc):
                if edge >> 1 == v:
                    c_p_flipped = c_p - 1 if edge & 1 else c_p + 1
                    delta += extra[c_p_flipped][const_p] - p_extra[const_p]
        # Complemented primary outputs (only charged in honest mode).
        if po_negation_cost:
            for po_index in po_of.get(v, ()):
                delta += po_negation_cost * (-1 if pos[po_index] & 1 else 1)
        _visit_for_flip(work, v, delta <= 0, position, evicted)


def _sweep_push_inverters(work: Mig, threshold: int) -> None:
    """In-place unconditional Ω.I(R→L) sweep: ``⟨x̄ ȳ z̄⟩ → ¬⟨x y z⟩``
    wherever at least ``threshold`` non-constant children are complemented
    (Algorithm 1's final sweep uses 3, the most costly case only)."""
    order = list(work.topo_gates())
    position = {v: i for i, v in enumerate(order)}
    evicted: set[int] = set()
    ca, cb, cc = work._ca, work._cb, work._cc  # encoding views, hot sweep
    for v in order:
        ea = ca[v]
        if ea < 0:
            continue
        eb, ec = cb[v], cc[v]
        inverted_nonconst = (ea > 1 and ea & 1) + (eb > 1 and eb & 1) + (ec > 1 and ec & 1)
        if inverted_nonconst >= threshold or v in evicted:
            _visit_for_flip(work, v, inverted_nonconst >= threshold, position, evicted)


def _visit_for_flip(
    work: Mig,
    v: int,
    flip: bool,
    position: dict[int, int],
    evicted: set[int],
) -> None:
    """Apply (or skip) one flip, merging in sweep order.

    When a flip's new key matches a gate that the sweep has *not reached
    yet*, the flipped node takes the key and the stale gate merges into it
    later, at its own position: evict the stale owner from the strash
    before flipping, and re-hash every evicted gate when its turn comes
    (merging it into whichever node now owns its key).
    """
    if flip:
        ca = work._ca
        owner = work._strash.get(
            work._pack_key(ca[v] ^ 1, work._cb[v] ^ 1, work._cc[v] ^ 1)
        )
        if (
            owner is not None
            and ca[owner] >= 0
            and position.get(owner, -1) > position[v]
        ):
            work.evict_strash(owner)
            evicted.add(owner)
        flip_complement(work, v)
    elif v in evicted:
        evicted.discard(v)
        work.rehash_node(v)


# ----------------------------------------------------------------------
# the depth objective
# ----------------------------------------------------------------------


def _rewrite_depth_worklist(mig: Mig, opts: RewriteOptions) -> Mig:
    """The depth objective on the in-place worklist engine.

    One private dead-free copy with incremental level maintenance
    (:meth:`~repro.mig.graph.Mig.enable_levels`), so every depth query
    during the sweep reads maintained levels instead of traversing the
    graph.  Each effort cycle visits every live gate once, in topological
    order, with the local
    :func:`~repro.mig.algebra.try_associativity_depth` move.  The loop
    keeps a strict-improvement rule: it stops as soon as a cycle fails to
    lower the global depth.  Moves already applied in that cycle are
    harmless, because each strictly lowers the rewritten node's level and
    can raise no other node's.
    """
    work = _private_clean_copy(mig)
    work.enable_inplace()  # a clone's; the one-pass copy has it on already
    # drop unreachable cones a clone carried over
    work.collect_unused()
    work.enable_levels()
    edits_at_start = work.edit_count
    ca = work._ca
    for _cycle in range(opts.effort):
        before = work.current_depth()
        fanouts = work.fanout_snapshot()
        for v in list(work.topo_gates()):
            if ca[v] >= 0:  # not retired by an earlier rewrite's cascade
                try_associativity_depth(work, v, fanouts)
        work.collect_unused()
        if work.current_depth() >= before:
            break
    if work.edit_count == edits_at_start:
        return work  # no structural edits: the private copy is already clean
    return work.compact()


def _private_clean_copy(mig: Mig) -> Mig:
    """A private, Ω.M-simplified copy of ``mig`` for in-place rewriting.

    The one-pass :meth:`~repro.mig.graph.Mig._rebuild_inplace` is the safe
    default (it drops tombstones and re-simplifies every gate); an input
    that is verifiably clean already — append-only, no tombstones, no
    trivially reducible gate — is :meth:`~repro.mig.graph.Mig.clone`-copied
    instead, which skips the whole per-gate re-hash and keeps the input's
    node ids, so a rewrite that moves nothing returns them unchanged.
    Unreachable cones a clone carries over are swept by the caller with
    ``collect_unused()`` once in-place maintenance is on.
    """
    if not mig.is_append_clean():
        return mig._rebuild_inplace()
    return mig.clone()


# ----------------------------------------------------------------------
# guided rewriting and the synthesize→schedule→re-synthesize loop
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CostLoopStep:
    """One candidate evaluation of the guided loop (for reporting)."""

    #: guided round (0 = the un-rewritten input's baseline measurement)
    iteration: int
    #: which strategy produced the candidate ("input", "size", "size+psi",
    #: "depth")
    variant: str
    #: whether the candidate improved the model objective and was kept
    accepted: bool
    #: the model's metrics for the candidate
    metrics: dict


@dataclass(frozen=True)
class CostLoopResult:
    """Result of :func:`compile_cost_loop`.

    ``mig`` is the cost-selected rewritten graph, ``program`` its
    Algorithm 2 compilation under the model's own compiler options (so
    the reported #I/#R are exactly what the loop optimized).
    ``baseline``/``final`` are the model's metrics before/after, and
    ``steps`` the full audit trail of candidate evaluations.
    """

    mig: Mig
    program: "Program"
    model: str
    steps: tuple
    iterations: int
    converged: bool
    baseline: dict
    final: dict
    seconds: float

    @property
    def num_instructions(self) -> int:
        return self.program.num_instructions

    @property
    def num_rrams(self) -> int:
        return self.program.num_rrams

    @property
    def num_gates(self) -> int:
        return self.mig.num_gates

    def __repr__(self) -> str:
        return (
            f"<CostLoopResult[{self.model}]: N={self.num_gates} "
            f"I={self.num_instructions} R={self.num_rrams} "
            f"iterations={self.iterations}"
            f"{' converged' if self.converged else ''}>"
        )


def _guided_variants(opts: RewriteOptions) -> tuple:
    """The candidate rewriting strategies one guided round explores.

    Algorithm 1 variants that land in *different* local optima: plain
    size rewriting, size with the derived Ψ.A rule (which frequently
    trades a node of sharing for a cheaper complement structure — the
    single biggest #I winner on the registry), and — when no depth budget
    constrains the search — pure depth rewriting (occasionally cheaper to
    translate at equal #N).  The model, not the
    strategy, decides what is kept.
    """
    base = dict(
        effort=opts.effort,
        po_negation_cost=opts.po_negation_cost,
        early_exit=opts.early_exit,
    )
    variants = [
        ("size", RewriteOptions(objective="size", depth_budget=opts.depth_budget, **base)),
        (
            "size+psi",
            RewriteOptions(
                objective="size", use_psi=True, depth_budget=opts.depth_budget, **base
            ),
        ),
    ]
    if opts.depth_budget is None:
        variants.append(("depth", RewriteOptions(objective="depth", **base)))
    return tuple(variants)


def _guided_search(
    mig: Mig,
    opts: RewriteOptions,
    model: CostModel,
    *,
    cache: "Optional[SynthesisCache]" = None,
    max_rounds: Optional[int] = None,
    progress: Optional[Callable[["CostLoopStep"], None]] = None,
) -> tuple[Mig, CostReport, list, int, bool]:
    """Measure-and-select driver: iterate rewriting to a model fixed point.

    Each round rewrites the incumbent under every :func:`_guided_variants`
    strategy, measures each candidate with ``model``, and keeps the best
    (strictly improving) one; the loop stops when a round improves
    nothing (``converged``) or after ``max_rounds`` rounds (the bounded
    iteration budget — defaults to ``opts.effort``).  The un-rewritten
    input is the baseline candidate, so the result is never worse than
    the input under the model.  Under :class:`~repro.core.cost.CompiledPlim`
    each candidate :meth:`~repro.mig.graph.Mig.fingerprint` is compiled
    once: a variant that lands on a graph already seen reuses its report.
    Returns ``(best, best_report, steps, rounds_run, converged)``.
    """
    reports: dict = {}

    def measure(candidate: Mig) -> CostReport:
        # Only compiled measurements are memoized.  A fingerprint ignores
        # unreachable gates, which ``num_gates`` counts, so a hit can
        # carry another graph's #N; the cheap models measure every time.
        if not isinstance(model, CompiledPlim):
            return model.measure(candidate, cache=cache)
        fingerprint = candidate.fingerprint()
        report = reports.get(fingerprint)
        if report is None:
            report = reports[fingerprint] = model.measure(candidate, cache=cache)
        return report

    best = mig if mig.is_append_clean() else mig.rebuild()[0]
    best_report = measure(best)
    steps: list[CostLoopStep] = [
        CostLoopStep(0, "input", True, dict(best_report.metrics))
    ]
    if progress is not None:
        progress(steps[0])
    budget = max(1, opts.effort if max_rounds is None else max_rounds)
    converged = False
    rounds = 0
    for rounds in range(1, budget + 1):
        improved = False
        for variant, vopts in _guided_variants(opts):
            candidate = rewrite_for_plim(best, vopts, cache=cache)
            report = measure(candidate)
            accepted = report.objective < best_report.objective
            steps.append(
                CostLoopStep(rounds, variant, accepted, dict(report.metrics))
            )
            if progress is not None:
                progress(steps[-1])
            if accepted:
                best, best_report = candidate, report
                improved = True
        if not improved:
            converged = True
            break
    return best, best_report, steps, rounds, converged


def compile_cost_loop(
    mig: Mig,
    *,
    objective: str = "plim",
    effort: int = 4,
    max_iterations: int = 4,
    cache: "Optional[SynthesisCache]" = None,
    progress: Optional[Callable[["CostLoopStep"], None]] = None,
) -> CostLoopResult:
    """Iterate synthesize→schedule→re-synthesize to a cost fixed point.

    The closed loop ROADMAP item 3 asks for: rewrite the MIG, measure the
    candidate under the ``objective`` model (default ``"plim"`` — a real
    Algorithm 2 compile + machine execution via
    :class:`~repro.core.cost.CompiledPlim`), feed the measurement back as
    the selection criterion, and repeat until no rewriting strategy
    improves the measured cost (or ``max_iterations`` rounds elapse — the
    bounded iteration budget).  ``effort`` is each inner rewrite's
    Algorithm 1 cycle count; ``cache`` memoizes the inner rewrites *and*
    the cost-model measurements (the ``"measurements"`` cache kind), so
    converged loops are cheap to re-run — across processes when the cache
    is disk-backed.

    The final program is compiled under the model's own accounting
    (:meth:`~repro.core.cost.CompiledPlim.compiler_options`; paper
    accounting for the other models), so the reported #I/#R are exactly
    the quantity the loop minimized.  ``final`` is the search's own
    report of the winner, so the only compile beyond the search's
    measurements is the one of the shipped program.

    Example — the loop never does worse than one-shot size rewriting:

        >>> from repro import Mig, compile_cost_loop, compile_mig
        >>> from repro.core.compiler import CompilerOptions
        >>> m = Mig()
        >>> a, b, c = (m.add_pi(n) for n in "abc")
        >>> _ = m.add_po(~m.add_maj(~a, ~b, c), "f")
        >>> loop = compile_cost_loop(m)
        >>> one_shot = compile_mig(
        ...     m, compiler_options=CompilerOptions(fix_output_polarity=False))
        >>> loop.num_instructions <= one_shot.num_instructions
        True
    """
    from repro.core.compiler import CompilerOptions, PlimCompiler

    start = time.perf_counter()
    opts = RewriteOptions(effort=effort, objective=objective)
    model = resolve_cost_model(objective)
    best, final, steps, rounds, converged = _guided_search(
        mig, opts, model, cache=cache, max_rounds=max_iterations,
        progress=progress,
    )
    if isinstance(model, CompiledPlim):
        copts = model.compiler_options()
    else:
        copts = CompilerOptions(fix_output_polarity=False)
    program = PlimCompiler(copts).compile(best)
    return CostLoopResult(
        mig=best,
        program=program,
        model=model.name,
        steps=tuple(steps),
        iterations=rounds,
        converged=converged,
        baseline=dict(steps[0].metrics),
        final=dict(final.metrics),
        seconds=time.perf_counter() - start,
    )
