"""The Ω Boolean algebra of MIGs as executable graph transformations.

The paper's axiomatic system Ω (§2.1):

* Ω.C  commutativity       ``⟨x y z⟩ = ⟨y x z⟩ = ⟨z y x⟩``
* Ω.M  majority            ``⟨x x z⟩ = x``,  ``⟨x x̄ z⟩ = z``
* Ω.A  associativity       ``⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩``
* Ω.D  distributivity      ``⟨x y ⟨u v z⟩⟩ = ⟨⟨x y u⟩ ⟨x y v⟩ z⟩``
* Ω.I  inverter propagation ``¬⟨x y z⟩ = ⟨x̄ ȳ z̄⟩``

Each axiom is a *local rule* ``try_<axiom>(mig, v)`` that rewrites the
single gate ``v`` of an :meth:`~repro.mig.graph.Mig.enable_inplace` graph
through :meth:`~repro.mig.graph.Mig.replace_node` and returns whether it
did — the building blocks of the worklist engine.  Their PLiM-specific
composition — Algorithm 1 of the paper — lives in
:mod:`repro.core.rewriting`.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MigError
from repro.mig.graph import Mig
from repro.mig.signal import Signal


_CHILD_PERMUTATIONS = (
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
)

#: Ω.C (A, B, Z) slot-overhead estimates by child class, for the paper's
#: §3 child-order translator (operand A ← child 1, B ← child 2, destination
#: Z ← child 3): slot B wants a complemented child or a constant (the
#: built-in inversion is free there), never a plain child (2
#: instructions); slot Z wants a single-fanout plain gate child
#: (overwritable in place), then a constant (1 instruction); slot A wants
#: a constant or a plain child (free).
SLOT_SCORES_CONST = (0, 0, 1)
SLOT_SCORES_INVERTED = (2, 0, 2)
SLOT_SCORES_PLAIN_SINGLE_GATE = (0, 2, 0)
SLOT_SCORES_PLAIN = (0, 2, 2)


def structural_keys(mig: Mig) -> list[int]:
    """A stored-order-independent structural fingerprint per node.

    Two isomorphic graphs (same PIs, same gate structure) assign the same
    key to corresponding nodes regardless of node indices or stored child
    order: a gate's key hashes the *sorted* ``(child key, polarity)``
    pairs.  The Ω.C sweep uses the keys to break slot-score ties
    canonically, so the stored child order it settles on does not depend
    on the order earlier merges happened to leave.  Keys are
    ordinary ``hash`` values of int tuples — deterministic across
    processes (no strings involved).
    """
    keys = _leaf_keys(mig)
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    for v in mig.topo_gates():
        # _gate_key inlined: sort the (key, polarity) pairs without
        # building them as tuples
        ea, eb, ec = ca[v], cb[v], cc[v]
        ka, kb, kc = keys[ea >> 1], keys[eb >> 1], keys[ec >> 1]
        pa, pb, pc = ea & 1, eb & 1, ec & 1
        if ka > kb or (ka == kb and pa > pb):
            ka, kb, pa, pb = kb, ka, pb, pa
        if kb > kc or (kb == kc and pb > pc):
            kb, kc, pb, pc = kc, kb, pc, pb
            if ka > kb or (ka == kb and pa > pb):
                ka, kb, pa, pb = kb, ka, pb, pa
        keys[v] = hash((3, ka, pa, kb, pb, kc, pc))
    return keys


def _leaf_keys(mig: Mig) -> list[int]:
    """:func:`structural_keys` table with only the constant and PIs set."""
    keys = [0] * len(mig)
    keys[0] = hash((1, 0))
    for i, node in enumerate(mig._pi_ids):
        keys[node] = hash((2, i))
    return keys


#: the four Ω.C child classes, by index: constant, complemented, plain
#: single-fanout gate, other plain child
SLOT_CLASSES = (
    SLOT_SCORES_CONST,
    SLOT_SCORES_INVERTED,
    SLOT_SCORES_PLAIN_SINGLE_GATE,
    SLOT_SCORES_PLAIN,
)


def _min_cost_permutations(classes: tuple[int, int, int]) -> tuple:
    """The slot permutations of minimal score for one child-class triple,
    in :data:`_CHILD_PERMUTATIONS` order."""
    scores = [SLOT_CLASSES[c] for c in classes]
    costs = [scores[a][0] + scores[b][1] + scores[z][2] for a, b, z in _CHILD_PERMUTATIONS]
    lowest = min(costs)
    return tuple(
        perm for perm, cost in zip(_CHILD_PERMUTATIONS, costs) if cost == lowest
    )


#: entry ``16 * class_a + 4 * class_b + class_c`` lists the minimal-score
#: slot permutations for children of those :data:`SLOT_CLASSES` indices
PERMUTATION_TABLE = tuple(
    _min_cost_permutations((i >> 4, (i >> 2) & 3, i & 3)) for i in range(64)
)
#: the :data:`PERMUTATION_TABLE` entry when it is a single permutation,
#: else ``None`` (a score tie that :func:`_best_permutation` must break)
UNIQUE_PERMUTATION = tuple(
    perms[0] if len(perms) == 1 else None for perms in PERMUTATION_TABLE
)


def _best_permutation(index: int, pairs: tuple) -> tuple[int, int, int]:
    """Slot permutation with minimal score, ties broken canonically.

    ``index`` packs the children's :data:`SLOT_CLASSES` indices as in
    :data:`PERMUTATION_TABLE`; ``pairs`` holds each child's (pre-rewrite)
    structural key and stored polarity.  Among equal-score permutations
    the first in ``(key, polarity)`` order of the children placed in
    slots A and B wins, so the chosen order does not depend on the
    incoming stored order.
    """
    perms = PERMUTATION_TABLE[index]
    best = perms[0]
    if len(perms) > 1:
        best_rank = (pairs[best[0]], pairs[best[1]])
        for perm in perms[1:]:
            rank = (pairs[perm[0]], pairs[perm[1]])
            if rank < best_rank:
                best, best_rank = perm, rank
    return best


def _common_pair(
    a: tuple[Signal, Signal, Signal], b: tuple[Signal, Signal, Signal]
) -> Optional[tuple[tuple[Signal, Signal], Signal, Signal]]:
    """Find two signals shared by triples ``a`` and ``b`` (as multisets).

    Returns ``((x, y), p, q)`` where ``x, y`` are the shared signals and
    ``p`` / ``q`` the leftovers of ``a`` / ``b``, or ``None`` if fewer than
    two signals are shared.
    """
    rest_b = list(b)
    shared: list[Signal] = []
    rest_a: list[Signal] = []
    for s in a:
        if s in rest_b:
            rest_b.remove(s)
            shared.append(s)
        else:
            rest_a.append(s)
    if len(shared) < 2:
        return None
    if len(shared) == 3:
        # Identical gates would have been merged by strashing; treat the
        # third shared signal as the leftover on both sides (the *same*
        # signal on both — handing side b a different leftover changes
        # the computed function).
        third = shared.pop()
        rest_a.append(third)
        rest_b.append(third)
    return (shared[0], shared[1]), rest_a[0], rest_b[0]


# ----------------------------------------------------------------------
# local rules (the worklist engine's building blocks)
#
# Each takes an enable_inplace() graph and one live gate ``v``, applies the
# axiom at ``v`` through Mig.replace_node, and returns True exactly when it
# called ``replace_node(v, …)`` (``v`` is then retired), else False.  No
# rule reports which nodes it touched: the engine's phases are topological
# sweeps and re-queue nothing.  Single-fanout heuristics read the optional
# ``fanouts`` snapshot
# (:meth:`~repro.mig.graph.Mig.fanout_snapshot`, falling back to the live
# counts for nodes created after it) so one phase decides against the
# fanout counts at its start; pass ``None`` to use live counts.
# The conditions are heuristics for node-count reduction, not correctness
# requirements, so a stale snapshot is always safe.
#
# The rules match and build on raw child encodings (``node << 1 |
# complement``, read straight from the ``_ca``/``_cb``/``_cc`` vectors and
# built with ``add_maj_enc``): a complemented edge to ``⟨x y z⟩`` is matched
# as the plain triple ``(x ^ 1, y ^ 1, z ^ 1)`` (Ω.I).  Signals appear only
# at the ``replace_node`` boundary.
#
# Rules that can raise a node's level (Ω.D restructuring, Ω.A/Ψ.A
# reshaping) additionally accept ``depth_budget``: on a graph with level
# maintenance (:meth:`~repro.mig.graph.Mig.enable_levels`) a candidate is
# rejected when committing it could push any primary-output level past the
# budget.  The test is conservative but sound: replacing ``v`` by a
# replacement whose level exceeds ``level(v)`` by ``delta`` raises every
# ancestor level — and therefore every PO level — by at most ``delta``
# (cascaded Ω.M collapses and strash merges only lower levels), so a
# candidate is safe whenever ``delta <= budget - current_depth()``.
# Collapse-only rules (Ω.M), polarity flips (Ω.I) and the strictly
# level-lowering depth move never raise a level and take no budget.
# ----------------------------------------------------------------------

#: for each child slot k, the other two slots (outer ``u``/``x`` candidates)
_OTHER_SLOTS = ((1, 2), (0, 2), (0, 1))


def _fanout(mig: Mig, fanouts: Optional[list[int]], node: int) -> int:
    if fanouts is not None and node < len(fanouts):
        return fanouts[node]
    return mig.fanout_of(node)


def _gate_children(mig: Mig, v: int) -> tuple[int, int, int]:
    """Child encodings of live gate ``v``; raises for any other node."""
    ea = mig._ca[v]
    if ea < 0:
        raise MigError(f"node {v} is not a gate")
    return ea, mig._cb[v], mig._cc[v]


def _inner_rest(inner: tuple[int, int, int], u: int) -> Optional[tuple[int, int]]:
    """``(y, z)`` of an Ω.A match ``⟨x u ⟨y u z⟩⟩``: the encoded ``inner``
    triple without its first ``u``, or ``None`` when ``u`` is not in it."""
    i0, i1, i2 = inner
    if u == i0:
        return i1, i2
    if u == i1:
        return i0, i2
    if u == i2:
        return i0, i1
    return None


def _inherit_order(mig: Mig, first_new: int, like: int) -> None:
    """:meth:`~repro.mig.graph.Mig.inherit_order` for every node created
    since ``first_new``: they all slot into ``like``'s position."""
    order = mig._order
    base = order[like]
    for node in range(first_new, len(mig)):
        order[node] = base + (node,)


def _require_levels_for_budget(mig: Mig, depth_budget: Optional[int]) -> None:
    """Entry check of every budget-gated rule: a budget needs levels."""
    if depth_budget is not None and mig._levels is None:
        raise MigError(
            "depth-budget gating needs level maintenance; "
            "call enable_levels() first"
        )


def _predicted_level(levels: list[int], encodings, floor: int = 0) -> int:
    """Upper bound on the level of a gate over child ``encodings``.

    ``floor`` folds in an already-predicted level of a not-yet-created
    inner gate.  An upper bound because ``add_maj`` can only simplify or
    share to something equal or shallower.
    """
    level = floor
    for e in encodings:
        child_level = levels[e >> 1]
        if child_level > level:
            level = child_level
    return 1 + level


def _exceeds_depth_budget(
    mig: Mig, v: int, replacement_level: int, depth_budget: int
) -> bool:
    """True when replacing ``v`` by a node at ``replacement_level`` could
    push a primary-output level past ``depth_budget``.

    ``replacement_level`` must be an upper bound on the committed
    replacement's level, computed from live child levels *before* any node
    is created (:func:`_predicted_level`).  Callers guarantee level
    maintenance via :func:`_require_levels_for_budget`.
    """
    delta = replacement_level - mig._levels[v]
    if delta <= 0:
        return False
    return delta > depth_budget - mig.current_depth()


def try_distributivity_rl(
    mig: Mig,
    v: int,
    fanouts: Optional[list[int]] = None,
    depth_budget: Optional[int] = None,
) -> bool:
    """Ω.D(R→L) at ``v``: ``⟨⟨x y u⟩ ⟨x y v⟩ z⟩ → ⟨x y ⟨u v z⟩⟩``.

    Applied when both inner gates have a single fanout, so the rewrite
    removes one node.  Edge polarity is handled through Ω.I (the inner
    triples are matched polarity-adjusted).  The restructured cone can be
    *deeper* than the original (``z`` gains a level); under
    ``depth_budget`` a candidate whose predicted level increase could push
    a PO past the budget is rejected before any node is created.

    The worklist engine's Ω.D phase
    (:func:`repro.core.rewriting._distributivity_phase`) runs this match
    test inline — two single-fanout gate children whose polarity-adjusted
    triples share two signals — and calls the rule only where it holds;
    a change to the test here must be made there too
    (``tests/test_rewrite_skips.py`` checks that the two agree).
    """
    _require_levels_for_budget(mig, depth_budget)
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    enc = _gate_children(mig, v)
    # the inner-gate candidates: single-fanout gate children (child slot
    # a empty => not a gate); the rule needs two of them
    single = [ca[e >> 1] >= 0 and _fanout(mig, fanouts, e >> 1) == 1 for e in enc]
    if single.count(True) < 2:
        return False
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if not (single[i] and single[j]):
            continue
        ei, ej = enc[i], enc[j]
        ni, nj = ei >> 1, ej >> 1
        if ni == nj:
            continue
        pi, pj = ei & 1, ej & 1
        common = _common_pair(
            (ca[ni] ^ pi, cb[ni] ^ pi, cc[ni] ^ pi),
            (ca[nj] ^ pj, cb[nj] ^ pj, cc[nj] ^ pj),
        )
        if common is None:
            continue
        (x, y), p, q = common
        z = enc[3 - i - j]
        if depth_budget is not None:
            inner_level = _predicted_level(mig._levels, (p, q, z))
            outer_level = _predicted_level(mig._levels, (x, y), floor=inner_level)
            if _exceeds_depth_budget(mig, v, outer_level, depth_budget):
                continue
        first_new = len(mig)
        inner = mig.add_maj_enc(p, q, z)
        outer = mig.add_maj_enc(x, y, inner)
        _inherit_order(mig, first_new, v)
        if outer >> 1 == v:  # degenerate: the pattern reproduced v itself
            mig.release_if_dead(inner >> 1)
            continue
        mig.replace_node(v, Signal(outer))
        # ``outer`` may have simplified or hashed past a freshly created
        # ``inner``; sweep the speculative gate if nothing reads it.
        mig.release_if_dead(inner >> 1)
        return True
    return False


def try_associativity(
    mig: Mig,
    v: int,
    fanouts: Optional[list[int]] = None,
    depth_budget: Optional[int] = None,
) -> bool:
    """Ω.A at ``v``: ``⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩`` where it is free.

    Accepted only when the replacement inner gate ``⟨y u x⟩`` is free —
    it simplifies or structurally hashes to an existing node — i.e. when
    the swap opens a sharing or Ω.M opportunity without growing the graph.
    A rejected candidate is *kept* as a speculative zero-fanout gate (it
    seeds sharing for later checks), as a reservation
    (:meth:`~repro.mig.graph.Mig.find_or_reserve_enc`) that becomes a full
    gate only once the phase hits or commits something; callers sweep the
    rest with :meth:`~repro.mig.graph.Mig.collect_unused` at phase
    boundaries.

    The swap can *deepen* the graph (``x`` moves under the inner gate);
    under ``depth_budget`` a candidate whose predicted level increase
    could push a PO past the budget is rejected after the freeness check
    (the speculative sharing semantics are unchanged — only the commit is
    gated).

    The swap keeps the inner child stored first as ``y``, so a match
    whose *other* inner child is ``x`` or ``x̄`` never frees anything,
    although ``v`` is redundant: ``⟨x u ⟨y u x⟩⟩ = ⟨y u x⟩`` and
    ``⟨x u ⟨y u x̄⟩⟩ = u`` (``⟨a b̄ ⟨a 0 b⟩⟩ = a``).  When no swap
    commits, the first such match collapses ``v`` onto the inner gate or
    onto ``u``.  Both are children of ``v``, so the collapse removes ``v``
    and can only lower levels.
    """
    _require_levels_for_budget(mig, depth_budget)
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    enc = _gate_children(mig, v)
    collapse = -1  # encoding v reduces to, if a match proves it redundant
    for k in range(3):
        g = enc[k]
        n = g >> 1
        if ca[n] < 0 or _fanout(mig, fanouts, n) != 1:
            continue
        pol = g & 1
        inner = (ca[n] ^ pol, cb[n] ^ pol, cc[n] ^ pol)
        s, t = _OTHER_SLOTS[k]
        for u, x in ((enc[s], enc[t]), (enc[t], enc[s])):
            rest = _inner_rest(inner, u)
            if rest is None:
                continue
            y, z = rest
            if collapse < 0 and z ^ x <= 1:
                collapse = g if z == x else u
            swapped = mig.find_or_reserve_enc(y, u, x, v)
            if swapped < 0:  # not free: the speculative gate is reserved
                continue
            if depth_budget is not None:
                replacement_level = _predicted_level(mig._levels, (z, u, swapped))
                if _exceeds_depth_budget(mig, v, replacement_level, depth_budget):
                    continue
            first_new = len(mig)
            replacement = mig.add_maj_enc(z, u, swapped)
            _inherit_order(mig, first_new, v)
            if replacement >> 1 == v:  # the swap reproduced v itself
                continue
            mig.replace_node(v, Signal(replacement))
            return True
    if collapse < 0:
        return False
    mig.replace_node(v, Signal(collapse))
    return True


def try_associativity_depth(
    mig: Mig,
    v: int,
    fanouts: Optional[list[int]] = None,
) -> bool:
    """Ω.A at ``v`` targeting *depth* — the depth-rewriting move of the
    MIG papers (Amarù et al.) restricted to strictly improving
    applications.  It needs no depth budget: every committed move
    strictly lowers ``v``'s level and can raise no other node's.

    In ``⟨x u ⟨y u z⟩⟩`` the inner gate adds a level on top of ``z``; when
    the swap ``⟨z u ⟨y u x⟩⟩`` strictly lowers ``v``'s level, it takes the
    late-arriving ``z`` off the inner critical path.  Requires incremental
    level maintenance (:meth:`~repro.mig.graph.Mig.enable_levels`): the
    accept test reads exact current levels, and because the swap strictly
    lowers ``v``'s level while no other node's level can rise, global
    depth is monotonically non-increasing under this rule.  Size-neutral
    beyond Ω.A itself: the single-fanout inner gate is freed whenever the
    replacement commits.
    """
    levels = mig._levels
    if levels is None:
        raise MigError(
            "try_associativity_depth needs level maintenance; "
            "call enable_levels() first"
        )
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    enc = _gate_children(mig, v)
    lv = levels[v]
    for k in range(3):
        g = enc[k]
        n = g >> 1
        # A swap can only lower v's level when the inner gate is the
        # critical child — cheap reject before any pattern matching.
        if levels[n] + 1 != lv:
            continue
        if ca[n] < 0 or _fanout(mig, fanouts, n) != 1:
            continue
        pol = g & 1
        inner = (ca[n] ^ pol, cb[n] ^ pol, cc[n] ^ pol)
        s, t = _OTHER_SLOTS[k]
        for u, x in ((enc[s], enc[t]), (enc[t], enc[s])):
            rest = _inner_rest(inner, u)
            if rest is None:
                continue
            y, z = rest
            ly, lz = levels[y >> 1], levels[z >> 1]
            if lz < ly:  # shallower inner child is y, deeper is z
                y, z, ly, lz = z, y, lz, ly
            lu, lx = levels[u >> 1], levels[x >> 1]
            before = 1 + max(lx, lu, 1 + max(ly, lu, lz))
            after = 1 + max(lz, lu, 1 + max(ly, lu, lx))
            if after >= before:
                continue  # no strict depth win
            first_new = len(mig)
            swapped = mig.add_maj_enc(y, u, x)
            replacement = mig.add_maj_enc(z, u, swapped)
            _inherit_order(mig, first_new, v)
            if replacement >> 1 == v:  # the swap reproduced v itself
                mig.release_if_dead(swapped >> 1)
                continue
            mig.replace_node(v, Signal(replacement))
            # ``replacement`` may have simplified or hashed past the
            # freshly created ``swapped``; sweep it if nothing reads it.
            mig.release_if_dead(swapped >> 1)
            return True
    return False


def try_complementary_associativity(
    mig: Mig,
    v: int,
    fanouts: Optional[list[int]] = None,
    depth_budget: Optional[int] = None,
) -> bool:
    """Ψ.A at ``v``: ``⟨x u ⟨y ū z⟩⟩ = ⟨x u ⟨y x z⟩⟩`` where it is free.

    Part of the derived rule set Ψ that the MIG papers add on top of Ω: an
    inner occurrence of ``ū`` is irrelevant when ``u`` is decided at the
    outer gate, so it may be replaced by the *other* outer child — which
    frequently lets Ω.M fire or re-shares an existing gate.  Applied only
    when the replacement inner gate is free.  Like
    :func:`try_associativity`, a rejected candidate stays as a reserved
    speculative gate until :meth:`~repro.mig.graph.Mig.collect_unused`, and
    like it the commit is gated under ``depth_budget`` (substituting ``x``
    for ``ū`` inside the inner gate can deepen the cone when ``x`` is the
    deeper signal).
    """
    _require_levels_for_budget(mig, depth_budget)
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    enc = _gate_children(mig, v)
    for k in range(3):
        g = enc[k]
        n = g >> 1
        if ca[n] < 0 or _fanout(mig, fanouts, n) != 1:
            continue
        pol = g & 1
        i0, i1, i2 = ca[n] ^ pol, cb[n] ^ pol, cc[n] ^ pol
        s, t = _OTHER_SLOTS[k]
        for u, x in ((enc[s], enc[t]), (enc[t], enc[s])):
            nu = u ^ 1
            if nu != i0 and nu != i1 and nu != i2:
                continue
            new_inner = mig.find_or_reserve_enc(
                x if i0 == nu else i0, x if i1 == nu else i1, x if i2 == nu else i2, v
            )
            if new_inner < 0:  # not free: the speculative gate is reserved
                continue
            if depth_budget is not None:
                replacement_level = _predicted_level(mig._levels, (x, u, new_inner))
                if _exceeds_depth_budget(mig, v, replacement_level, depth_budget):
                    continue
            first_new = len(mig)
            replacement = mig.add_maj_enc(x, u, new_inner)
            _inherit_order(mig, first_new, v)
            if replacement >> 1 == v:  # the rewrite reproduced v itself
                continue
            mig.replace_node(v, Signal(replacement))
            return True
    return False


def flip_complement(mig: Mig, v: int) -> None:
    """Ω.I(R→L) at ``v``: replace the gate by its complement.

    ``⟨a b c⟩`` becomes ``¬⟨ā b̄ c̄⟩``, pushing one inversion onto every
    fanout edge.  The flipped gate may hash to an existing node, in which
    case the flip also merges.  Unconditional — cost policies live in the
    callers (the worklist engine's cost-aware and unconditional inverter
    sweeps).  A flip to a fresh gate takes
    :meth:`~repro.mig.graph.Mig.flip_enc`; only a strash hit goes through
    the generic replacement.
    """
    if mig.flip_enc(v):
        return
    ea, eb, ec = _gate_children(mig, v)
    first_new = len(mig)
    flipped = mig.add_maj_enc(ea ^ 1, eb ^ 1, ec ^ 1)
    _inherit_order(mig, first_new, v)
    mig.replace_node(v, Signal(flipped ^ 1))
