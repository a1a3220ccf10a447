"""Structural analysis of MIGs: levels, fanout, complement statistics.

These are the measurements the compiler's heuristics consume — the
candidate priority queue compares parent levels and releasing children, and
the rewriting cost model counts complemented edges per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mig.graph import Mig


def levels(mig: Mig) -> dict[int, int]:
    """Topological level of every node (constant and PIs are level 0).

    Gates are visited in :meth:`~repro.mig.graph.Mig.topo_gates` order so
    the result is correct even after in-place rewriting, when index order
    is no longer topological.
    """
    result = {0: 0}
    for pi in mig.pis():
        result[pi.node] = 0
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    for v in mig.topo_gates():
        result[v] = 1 + max(
            result[ca[v] >> 1], result[cb[v] >> 1], result[cc[v] >> 1]
        )
    return result


def depth(mig: Mig) -> int:
    """Number of gate levels on the longest PI→PO path.

    Graphs with incremental level maintenance enabled
    (:meth:`~repro.mig.graph.Mig.enable_levels`) answer from the
    maintained table in O(#POs); everything else pays one traversal.
    """
    if mig.num_gates == 0:
        return 0
    if mig.has_levels:
        return mig.current_depth()
    lv = levels(mig)
    if mig.num_pos:
        return max((lv[po.node] for po in mig.pos()), default=0)
    return max(lv.values())


def fanout_counts(mig: Mig) -> dict[int, int]:
    """Number of reader edges per node (gate children + primary outputs)."""
    counts = {v: 0 for v in mig.nodes()}
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    for v in mig.gates():
        counts[ca[v] >> 1] += 1
        counts[cb[v] >> 1] += 1
        counts[cc[v] >> 1] += 1
    for po in mig.pos():
        counts[po.node] += 1
    return counts


def parents_of(mig: Mig) -> list[list[int]]:
    """Gate parents of every node, indexed by node id (a parent appears
    once per child edge; dead slots and PO-only nodes get ``[]``)."""
    parents: list[list[int]] = [[] for _ in range(len(mig))]
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    for v in mig.gates():
        parents[ca[v] >> 1].append(v)
        parents[cb[v] >> 1].append(v)
        parents[cc[v] >> 1].append(v)
    return parents


def use_counts(mig: Mig, parents: Optional[list[list[int]]] = None) -> list[int]:
    """Non-constant readers per node, indexed by node id (gate child edges
    plus PO edges).

    This is the compiler's initial reference count: when it reaches zero
    the node's cells are returned to the allocator (§4.2.3).  Unlike
    :func:`fanout_counts`, edges to the constant node are not charged —
    constants never occupy a work cell.  Pass the :func:`parents_of`
    lists of ``mig`` when they are at hand: every gate child edge is one
    parent entry, so the counts follow without another pass over the
    child arrays.
    """
    if parents is None:
        parents = parents_of(mig)
    uses = [len(readers) for readers in parents]
    uses[0] = 0
    for po in mig.pos():
        if not po.is_const:
            uses[po.node] += 1
    return uses


def complemented_child_count(mig: Mig, node: int, count_constants: bool = False) -> int:
    """Complemented child edges of a gate.

    Constant children are excluded by default: a complemented edge to the
    constant node is just the constant 1 and costs nothing to compute, so
    the compiler's cost analysis must not count it as an inversion.
    """
    return sum(
        1
        for child in mig.children(node)
        if child.inverted and (count_constants or not child.is_const)
    )


@dataclass(frozen=True)
class ComplementStats:
    """Distribution of (non-constant) complemented edges over gates."""

    num_gates: int
    by_count: tuple[int, int, int, int]  # gates with 0, 1, 2, 3 complements

def complement_stats(mig: Mig) -> ComplementStats:
    """Histogram of complemented-child counts over all gates."""
    histogram = [0, 0, 0, 0]
    for v in mig.gates():
        histogram[complemented_child_count(mig, v)] += 1
    return ComplementStats(num_gates=mig.num_gates, by_count=tuple(histogram))


@dataclass(frozen=True)
class MigStats:
    """Summary used by reports and the CLI."""

    num_pis: int
    num_pos: int
    num_gates: int
    depth: int
    complements: ComplementStats

    def __str__(self) -> str:
        c = self.complements.by_count
        return (
            f"PIs={self.num_pis} POs={self.num_pos} gates={self.num_gates} "
            f"depth={self.depth} complements(0/1/2/3)={c[0]}/{c[1]}/{c[2]}/{c[3]}"
        )


def stats(mig: Mig) -> MigStats:
    """Collect :class:`MigStats` for ``mig``."""
    return MigStats(
        num_pis=mig.num_pis,
        num_pos=mig.num_pos,
        num_gates=mig.num_gates,
        depth=depth(mig),
        complements=complement_stats(mig),
    )
