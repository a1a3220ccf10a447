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
deterministic.  An index-ordered scheduler (plain topological order) is
provided for the naïve baseline and the "candidate selection disabled"
ablation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Protocol

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


class Scheduler(Protocol):
    """Common protocol of the candidate schedulers."""

    def push(self, node: int) -> None: ...

    def pop(self) -> int: ...

    def __len__(self) -> int: ...


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


def make_scheduler(options, context, state, pending_children) -> "Scheduler":
    """Build the candidate scheduler for one compilation run.

    ``options`` is duck-typed (``scheduling``, ``unblocking_rule``,
    ``level_rule``) so this module stays import-independent of the
    compiler; ``context`` is the :class:`~repro.mig.context.AnalysisContext`
    of the graph being compiled — its cached parents and levels feed the
    priority key, so repeated compilations of the same node order share
    them.  ``state`` is a
    :class:`~repro.core.translate_fast.FastTranslationState` (remaining
    uses in a flat ``array('q')``) and ``pending_children`` an array
    indexed by node id: the dynamic tables the key reads at refresh time,
    straight from the raw child encodings.

    With the level rule off (the default) every :class:`CandidateKey` has
    ``min_parent_level == max_parent_level == 0``, so its comparator
    degenerates to ``(-releasing, -unblocks, index)`` — the key function
    returns exactly that tuple, which sorts identically at a fraction of
    the cost (keys of the two kinds never meet in one heap).  With the
    level rule on, the full :class:`CandidateKey` is used.
    """
    if options.scheduling == "index":
        return IndexScheduler()

    from repro.mig.graph import _GATE  # local: keep module import-light

    mig = context.mig
    parents = context.parents
    remaining = state.remaining
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    kind = mig._kind
    use_unblocks = options.unblocking_rule

    if options.level_rule:
        node_levels = context.levels
        po_fed: set[int] = {po.node for po in mig.pos() if not po.is_const}

        def level_key_fn(node: int) -> CandidateKey:
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

        return PriorityScheduler(level_key_fn)

    def key_fn(node: int) -> tuple[int, int, int]:
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
        return (-releasing, -unblocks, node)

    return PriorityScheduler(key_fn)


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
