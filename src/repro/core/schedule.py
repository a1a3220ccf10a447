"""Candidate selection (paper §4.2.1).

Algorithm 2 keeps a priority queue of *candidates* — gates whose children
are all computed.  The ordering implements the paper's two principles:

1. **Release early**: prefer the candidate with more *releasing children*
   (children whose RRAM can be freed right after this computation — here:
   gate children whose last remaining reader is this candidate).
2. **Allocate late**: if neither wins on (1), prefer ``u`` when ``u``'s
   highest-level parent lies strictly below ``v``'s lowest-level parent —
   ``u``'s result is consumed soon, while ``v``'s would sit in a cell
   blocking it for a long time (Fig. 4(b)).

Ties fall back to the node index, which also makes the schedule fully
deterministic.  This module defines the keys; the heap that orders them
lives in the compilation loop
(:meth:`repro.core.compiler.PlimCompiler._compile_ordered`), which
pushes a candidate when its last child is computed and re-keys it when
a translation changes its context.

:func:`candidate_key_fn` builds the key of one compilation run.  Without
the level rule the comparator is a total order on
``(-releasing, -unblocks, index)``, so the key is packed into one ``int``
and the heap holds plain ints; index scheduling is the degenerate key
``index``.  With the level rule the key is a :class:`CandidateKey`, whose
comparison is not transitive — the heap's output then depends on the
exact sequence of pushes, which the loop keeps as it always was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.mig.context import AnalysisContext
from repro.mig.graph import _GATE

#: level sentinel for candidates without gate parents (pure PO feeders):
#: nothing downstream waits for them, so they never win the level rule.
NO_PARENT_LEVEL = 1 << 30


@dataclass(frozen=True, slots=True)
class CandidateKey:
    """Comparison key implementing the paper's candidate preference.

    ``unblocks`` is this package's one-step lookahead extension of the
    paper's principle (i): a candidate that is the *last missing child* of
    some parent lets that parent (and its releasing children) run next, so
    partially computed regions complete instead of stranding live cells.
    Set it to zero to get the paper's literal comparator (the
    ``unblocking_rule`` compiler option / ablation X5).
    """

    releasing: int
    unblocks: int
    min_parent_level: int
    max_parent_level: int
    index: int

    def __lt__(self, other: "CandidateKey") -> bool:
        # (i) more releasing children wins.
        if self.releasing != other.releasing:
            return self.releasing > other.releasing
        # (i') more unblocked parents wins (lookahead extension).
        if self.unblocks != other.unblocks:
            return self.unblocks > other.unblocks
        # (ii) strict parent-level dominance: u's highest-level parent is
        # below v's lowest-level parent.
        if self.max_parent_level < other.min_parent_level:
            return True
        if other.max_parent_level < self.min_parent_level:
            return False
        # (iii) node index.
        return self.index < other.index


def make_key(
    node: int,
    releasing_children: int,
    parent_levels: list[int],
    unblocks: int = 0,
) -> CandidateKey:
    """Build a :class:`CandidateKey` from dynamic context.

    ``parent_levels`` lists the topological levels of the node's *gate*
    parents (with primary outputs modelled one level above the node);
    empty for dead gates only.
    """
    if parent_levels:
        lo, hi = min(parent_levels), max(parent_levels)
    else:
        lo = hi = NO_PARENT_LEVEL
    return CandidateKey(
        releasing=releasing_children,
        unblocks=unblocks,
        min_parent_level=lo,
        max_parent_level=hi,
        index=node,
    )


def candidate_key_fn(
    options,
    context: AnalysisContext,
    remaining: list[int],
    pending_children: list[int],
) -> Callable[[int], Union[int, CandidateKey]]:
    """The key of one compilation run: ``key(node)``, smaller pops first.

    ``options`` is duck-typed (``scheduling``, ``unblocking_rule``,
    ``level_rule``) so this module stays import-independent of the
    compiler.  ``remaining`` (uses left per node) and ``pending_children``
    (uncomputed child edges per gate) are the loop's live tables, read
    when a key is computed.

    Without the level rule the key is an ``int`` whose low
    ``len(mig).bit_length()`` bits are the node, so ``key & mask``
    recovers it; above them sit, most significant first, ``3 - releasing``
    and, under the unblocking rule, ``span - 1 - unblocks`` (``span`` is
    one more than the largest parent count, so the field never
    overflows).
    """
    mig = context.mig
    if options.scheduling == "index":
        return int  # the node itself
    parents = context.parents
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    kind = mig._kind
    use_unblocks = options.unblocking_rule

    if options.level_rule:
        node_levels = context.levels
        # A primary output consumes its node "right above" it: model it as
        # a parent one level up, otherwise PO feeders would be deferred to
        # the end of the schedule while their children sit in live cells.
        po_fed: set[int] = {po.node for po in mig.pos() if not po.is_const}

        def level_key(node: int) -> CandidateKey:
            releasing = 0
            for e in (ca[node], cb[node], cc[node]):
                child = e >> 1
                if kind[child] == _GATE and remaining[child] == 1:
                    releasing += 1
            unblocks = 0
            if use_unblocks:
                for p in parents[node]:
                    if pending_children[p] == 1:
                        unblocks += 1
            parent_levels = [node_levels[p] for p in parents[node]]
            if node in po_fed:
                parent_levels.append(node_levels[node] + 1)
            return make_key(node, releasing, parent_levels, unblocks)

        return level_key

    shift = len(mig).bit_length()
    span = max(map(len, parents), default=0) + 1 if use_unblocks else 1
    releasing_unit = span << shift  # unblocks ∈ [0, span) packs below it

    def releasing_key(node: int) -> int:
        c = ca[node] >> 1
        releasing = kind[c] == _GATE and remaining[c] == 1
        c = cb[node] >> 1
        releasing += kind[c] == _GATE and remaining[c] == 1
        c = cc[node] >> 1
        releasing += kind[c] == _GATE and remaining[c] == 1
        return (3 - releasing) * releasing_unit + node

    if not use_unblocks:
        return releasing_key

    def unblocking_key(node: int) -> int:
        unblocks = 0
        for p in parents[node]:
            if pending_children[p] == 1:
                unblocks += 1
        return releasing_key(node) + ((span - 1 - unblocks) << shift)

    return unblocking_key
