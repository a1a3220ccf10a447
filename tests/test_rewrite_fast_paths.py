"""Unit tests for the encoding-level pieces of the Algorithm 1 fast path.

* The table-driven Ω.C choice, :func:`~repro.mig.algebra._best_permutation`,
  must pick exactly what scoring all six permutations picks (the
  reference below), for all 64 child-class triples and for
  structural-key ties.
* ``Mig._topo_order`` streams the live gates out in order-key order and
  defers a gate only while its children are unplaced; whatever the graph,
  it must return exactly what Kahn's algorithm with a min-heap on order
  keys returns (the reference below), on hand-built graphs and on random
  graphs after random in-place rewrites.
"""

import heapq
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mig.algebra import (
    _CHILD_PERMUTATIONS,
    PERMUTATION_TABLE,
    SLOT_CLASSES,
    _best_permutation,
    flip_complement,
    try_associativity,
    try_complementary_associativity,
    try_distributivity_rl,
)
from repro.mig.graph import Mig

from conftest import random_mig

#: per-slot structural keys: distinct, reversed, all tied, partly tied
KEY_PATTERNS = [(1, 2, 3), (3, 2, 1), (7, 7, 7), (7, 7, 1), (1, 7, 7), (4, 1, 4)]


def _polarities(cls: int) -> tuple[int, ...]:
    """Stored polarities a child of class ``cls`` can have: constants come
    as 0 or 1, complemented children are 1, plain children 0."""
    return ((0, 1), (1,), (0,), (0,))[cls]


def scored_permutation(scores, triple, child_keys):
    """Reference: score all six slot permutations, rank ties by the
    (key, polarity) of the children in slots A and B, first minimum wins."""
    best = None
    for perm in _CHILD_PERMUTATIONS:
        a, b, z = perm
        cost = scores[a][0] + scores[b][1] + scores[z][2]
        rank = (
            cost,
            (child_keys[a], int(triple[a]) & 1),
            (child_keys[b], int(triple[b]) & 1),
        )
        if best is None or rank < best[0]:
            best = (rank, perm)
    return best[1]


@pytest.mark.parametrize("index", range(64))
def test_table_permutation_matches_scoring_every_permutation(index):
    classes = (index >> 4, (index >> 2) & 3, index & 3)
    scores = [SLOT_CLASSES[c] for c in classes]
    for keys in KEY_PATTERNS:
        for pols in product(*(_polarities(c) for c in classes)):
            triple = tuple((10 + i) << 1 | pol for i, pol in enumerate(pols))
            expected = scored_permutation(scores, triple, keys)
            chosen = _best_permutation(index, tuple(zip(keys, pols)))
            assert chosen == expected, (classes, keys, pols)


def test_permutation_table_lists_every_minimum():
    """All-plain children tie on every permutation; one constant child
    belongs in slot A or B."""
    assert PERMUTATION_TABLE[0b111111] == (
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    )
    assert all(0 in perm[:2] for perm in PERMUTATION_TABLE[0b001111])


def kahn_order(mig: Mig) -> list[int]:
    """Reference: Kahn's algorithm with a min-heap on order keys."""
    remaining: dict[int, int] = {}
    dependents: dict[int, list[int]] = {}
    heap = []
    for v in mig.gates():
        children = [s.node for s in mig.children(v) if mig.is_gate(s.node)]
        for child in children:
            dependents.setdefault(child, []).append(v)
        if children:
            remaining[v] = len(children)
        else:
            heapq.heappush(heap, (mig._order[v], v))
    result = []
    while heap:
        v = heapq.heappop(heap)[1]
        result.append(v)
        for p in dependents.get(v, ()):
            remaining[p] -= 1
            if remaining[p] == 0:
                heapq.heappush(heap, (mig._order[p], p))
    return result


def test_topo_order_defers_gates_whose_key_points_backwards():
    """Gate ``y`` (key (5,)) is rewired onto the later gate ``z`` (key
    (6,)): ``y`` must wait for ``z`` although its key is smaller."""
    mig = Mig()
    a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
    x = mig.add_maj(a, b, c)
    y = mig.add_maj(x, a, ~b)
    top = mig.add_maj(y, a, c)
    _ = mig.add_po(top, "f")
    mig.enable_inplace()
    z = mig.add_maj(a, ~b, ~c)
    # structural only: the replacement need not be equivalent here
    mig.replace_node(x.node, z)
    assert list(mig.topo_gates()) == [z.node, y.node, top.node]
    assert mig._topo_order() == kahn_order(mig)


def test_topo_order_keeps_a_key_ordered_graph():
    mig = Mig()
    a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
    x = mig.add_maj(a, b, c)
    y = mig.add_maj(x, a, ~b)
    top = mig.add_maj(y, x, c)
    _ = mig.add_po(top, "f")
    mig.enable_inplace()
    # a replacement inheriting x's slot keeps the key order topological
    w = mig.add_maj(a, ~b, c)
    mig.inherit_order(w.node, x.node)
    mig.replace_node(x.node, w)
    assert list(mig.topo_gates()) == [w.node, y.node, top.node]
    assert mig._topo_order() == kahn_order(mig)


def flip_without_inheriting(mig: Mig, v: int) -> None:
    """Ω.I whose replacement keeps its own (largest) order key, so ``v``'s
    readers end up pointing forwards in key order and must be deferred."""
    a, b, c = mig.children(v)
    flipped = mig.add_maj(~a, ~b, ~c)
    if flipped.node != v:
        mig.replace_node(v, ~flipped)


RULES = (
    try_associativity,
    try_complementary_associativity,
    try_distributivity_rl,
    lambda mig, v: flip_complement(mig, v),
    flip_without_inheriting,
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_topo_order_matches_kahn_after_inplace_rewrites(seed, data):
    mig = random_mig(seed, num_pis=5, num_gates=30, invert_probability=0.4)
    work, _ = mig.rebuild()
    work.enable_inplace()
    for _ in range(data.draw(st.integers(0, 12))):
        gates = list(work.gates())
        if not gates:
            break
        rule = data.draw(st.sampled_from(RULES))
        rule(work, data.draw(st.sampled_from(gates)))
    order = work._topo_order()
    assert order == kahn_order(work)
    assert sorted(order) == list(work.gates())
