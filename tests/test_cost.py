"""Unit tests for repro.core.cost (the static cost model)."""

import pytest

from repro.core.cost import (
    estimate_extra_rrams,
    estimate_instructions,
    negation_cost,
)
from repro.mig.graph import Mig
from repro.mig.signal import Signal


@pytest.fixture
def mig():
    m = Mig()
    return m, m.add_pi("a"), m.add_pi("b"), m.add_pi("c")


class TestNegationsNeeded:
    """``negation_cost``: two instructions per complement materialized."""

    def test_single_complement_is_free(self):
        assert negation_cost(1, False) == 0
        assert negation_cost(1, True) == 0

    def test_extra_complements_cost(self):
        assert negation_cost(2, False) == 2
        assert negation_cost(3, False) == 4

    def test_no_complement_needs_fabrication(self):
        assert negation_cost(0, False) == 2

    def test_constant_rescues_no_complement(self):
        assert negation_cost(0, True) == 0


class TestClassify:
    """The child profile the estimates count: complemented non-constant
    children, and whether a constant child is present."""

    def test_mixed(self, mig):
        m, a, b, _ = mig
        g = m.add_maj(~a, b, Signal.CONST1)
        assert Mig._profile_enc(*map(int, m.children(g.node))) == (1, True)

    def test_all_plain(self, mig):
        m, a, b, c = mig
        g = m.add_maj(a, b, c)
        assert Mig._profile_enc(*map(int, m.children(g.node))) == (0, False)


class TestNodeCost:
    """Expected instructions of a one-gate graph: the gate's own cost."""

    def test_ideal_node(self, mig):
        m, a, b, c = mig
        m.add_maj(~a, b, c)
        assert estimate_instructions(m) == 1

    def test_and_node(self, mig):
        m, a, b, _ = mig
        m.add_maj(a, b, Signal.CONST0)
        assert estimate_instructions(m) == 1

    def test_double_complement(self, mig):
        m, a, b, c = mig
        m.add_maj(~a, ~b, c)
        assert estimate_instructions(m) == 3

    def test_triple_complement(self, mig):
        m, a, b, c = mig
        m.add_maj(~a, ~b, ~c)
        assert estimate_instructions(m) == 5

    def test_no_complement_no_const(self, mig):
        m, a, b, c = mig
        m.add_maj(a, b, c)
        assert estimate_instructions(m) == 3


class TestEstimates:
    def test_totals(self, mig):
        m, a, b, c = mig
        m.add_maj(~a, b, c)  # 1
        m.add_maj(~a, ~b, c)  # 3, one extra RRAM
        m.add_po(Signal.make(len(m) - 1), "f")
        assert estimate_instructions(m) == 4
        assert estimate_extra_rrams(m) == 1

    def test_po_negation_cost(self, mig):
        m, a, b, c = mig
        g = m.add_maj(~a, b, c)
        m.add_po(~g, "f")
        assert estimate_instructions(m, po_negation_cost=0) == 1
        assert estimate_instructions(m, po_negation_cost=2) == 3

    def test_estimate_bundle(self, mig):
        m, a, b, c = mig
        m.add_maj(a, b, c)
        assert m.num_gates == 1
        assert estimate_instructions(m) == 3
        assert estimate_extra_rrams(m) == 1

    def test_rewriting_reduces_estimate(self):
        """The estimator must reward what Algorithm 1 does."""
        from repro.core.rewriting import rewrite_for_plim

        m = Mig()
        a, b, c, d = (m.add_pi(x) for x in "abcd")
        g1 = m.add_maj(~a, ~b, ~c)
        g2 = m.add_maj(~g1, ~a, d)
        m.add_po(g2, "f")
        rewritten = rewrite_for_plim(m)
        assert estimate_instructions(rewritten) < estimate_instructions(m)
