"""Unit tests for repro.mig.analysis."""

import pytest

from repro.mig.analysis import (
    complement_stats,
    complemented_child_count,
    depth,
    fanout_counts,
    levels,
    parents_of,
    stats,
)
from repro.mig.graph import Mig
from repro.mig.signal import Signal


@pytest.fixture
def chain():
    """a -> g1 -> g2 -> g3 with extra fanout from g1."""
    mig = Mig()
    a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
    g1 = mig.add_maj(a, b, c)
    g2 = mig.add_maj(g1, ~a, Signal.CONST0)
    g3 = mig.add_maj(g2, g1, ~b)
    mig.add_po(g3, "f")
    return mig, (a, b, c), (g1, g2, g3)


class TestLevels:
    def test_leaves_are_level_zero(self, chain):
        mig, (a, b, c), _ = chain
        lv = levels(mig)
        assert lv[0] == 0
        assert lv[a.node] == lv[b.node] == lv[c.node] == 0

    def test_gate_levels(self, chain):
        mig, _, (g1, g2, g3) = chain
        lv = levels(mig)
        assert lv[g1.node] == 1
        assert lv[g2.node] == 2
        assert lv[g3.node] == 3

    def test_depth(self, chain):
        mig, *_ = chain
        assert depth(mig) == 3

    def test_depth_empty(self):
        mig = Mig()
        mig.add_pi("a")
        assert depth(mig) == 0

    def test_depth_uses_pos(self):
        """Dead deep gates do not count toward depth."""
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        g1 = mig.add_maj(a, b, Signal.CONST0)
        mig.add_maj(g1, a, Signal.CONST1)  # dead, level 2
        mig.add_po(g1, "f")
        assert depth(mig) == 1


class TestFanout:
    def test_counts(self, chain):
        mig, (a, b, c), (g1, g2, g3) = chain
        fo = fanout_counts(mig)
        assert fo[g1.node] == 2  # feeds g2 and g3
        assert fo[g2.node] == 1
        assert fo[g3.node] == 1  # the PO
        assert fo[a.node] == 2  # g1 and ~a in g2
        assert fo[c.node] == 1

    def test_parents(self, chain):
        mig, (a, _, _), (g1, g2, g3) = chain
        parents = parents_of(mig)
        assert parents[g1.node] == [g2.node, g3.node]
        assert parents[g3.node] == []
        assert set(parents[a.node]) == {g1.node, g2.node}


class TestComplementStats:
    def test_complemented_child_count(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        g = mig.add_maj(~a, ~b, Signal.CONST1)
        assert complemented_child_count(mig, g.node) == 2
        assert complemented_child_count(mig, g.node, count_constants=True) == 3

    def test_histogram(self):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        mig.add_maj(a, b, c)  # 0 complements
        mig.add_maj(~a, b, c)  # 1
        mig.add_maj(~a, ~b, c)  # 2
        mig.add_maj(~a, ~b, ~c)  # 3
        cs = complement_stats(mig)
        assert cs.by_count == (1, 1, 1, 1)
        assert sum(cs.by_count[2:]) == 2  # gates with >= 2 complemented children

    def test_stats_summary(self, chain):
        mig, *_ = chain
        s = stats(mig)
        assert s.num_pis == 3
        assert s.num_gates == 3
        assert s.depth == 3
        assert "gates=3" in str(s)
