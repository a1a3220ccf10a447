"""Unit tests for the Ω axiom passes (``tests/rewrite_reference.py``).

Every pass must preserve all output functions; the size-rule passes must
never grow the graph.  Targeted constructions check each pattern actually
fires.
"""

import pytest

from repro.mig.analysis import complement_stats
from repro.mig.graph import Mig
from repro.mig.signal import Signal
from repro.mig.simulate import truth_tables

from conftest import random_mig
from rewrite_reference import (
    effective_children,
    pass_associativity,
    pass_commutativity,
    pass_complementary_associativity,
    pass_distributivity_lr,
    pass_distributivity_rl,
    pass_majority,
    pass_push_inverters,
    rewrite_reference,
)

ALL_PASSES = [
    pass_majority,
    pass_commutativity,
    pass_distributivity_rl,
    pass_distributivity_lr,
    pass_associativity,
    pass_push_inverters,
]


@pytest.mark.parametrize("pass_fn", ALL_PASSES)
@pytest.mark.parametrize("seed", range(6))
def test_passes_preserve_function(pass_fn, seed):
    mig = random_mig(seed, num_pis=5, num_gates=25, num_pos=3)
    rewritten = pass_fn(mig)
    assert truth_tables(mig) == truth_tables(rewritten)


@pytest.mark.parametrize(
    "pass_fn",
    [pass_majority, pass_commutativity, pass_distributivity_rl, pass_associativity],
)
@pytest.mark.parametrize("seed", range(6))
def test_size_passes_never_grow(pass_fn, seed):
    mig = random_mig(seed, num_pis=5, num_gates=25, num_pos=3)
    baseline = mig.cleanup()[0].num_gates
    assert pass_fn(mig).num_gates <= baseline


class TestEffectiveChildren:
    def test_plain_edge(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        g = mig.add_maj(a, b, Signal.CONST0)
        assert effective_children(mig, g) == (a, b, Signal.CONST0)

    def test_inverted_edge_flips_children(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        g = mig.add_maj(a, ~b, Signal.CONST0)
        assert effective_children(mig, ~g) == (~a, b, Signal.CONST1)

    def test_non_gate_returns_none(self):
        mig = Mig()
        a = mig.add_pi("a")
        assert effective_children(mig, a) is None
        assert effective_children(mig, Signal.CONST0) is None


class TestMajorityPass:
    def test_removes_reducible_gate(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        g = mig.add_maj(a, a, b, simplify=False)
        mig.add_po(g, "f")
        result = pass_majority(mig)
        assert result.num_gates == 0
        assert truth_tables(result)["f"] == truth_tables(mig)["f"]

    def test_merges_duplicates(self):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        g1 = mig.add_maj(a, b, c)
        # same function built again bypassing simplification paths
        g2 = mig.add_maj(c, b, a)
        mig.add_po(g1, "f")
        mig.add_po(g2, "g")
        assert pass_majority(mig).num_gates == 1


class TestDistributivityRL:
    def make_pattern(self):
        """⟨⟨x y u⟩ ⟨x y v⟩ z⟩ with single-fanout inner gates."""
        mig = Mig()
        x, y, u, v, z = (mig.add_pi(n) for n in "xyuvz")
        inner1 = mig.add_maj(x, y, u)
        inner2 = mig.add_maj(x, y, v)
        root = mig.add_maj(inner1, inner2, z)
        mig.add_po(root, "f")
        return mig

    def test_saves_one_node(self):
        mig = self.make_pattern()
        assert mig.num_gates == 3
        result = pass_distributivity_rl(mig)
        assert result.num_gates == 2
        assert truth_tables(result)["f"] == truth_tables(mig)["f"]

    def test_skipped_for_shared_inner(self):
        mig = Mig()
        x, y, u, v, z = (mig.add_pi(n) for n in "xyuvz")
        inner1 = mig.add_maj(x, y, u)
        inner2 = mig.add_maj(x, y, v)
        root = mig.add_maj(inner1, inner2, z)
        mig.add_po(root, "f")
        mig.add_po(inner1, "g")  # inner1 now has fanout 2
        result = pass_distributivity_rl(mig)
        assert result.num_gates == 3

    def test_polarity_through_omega_i(self):
        """Complemented inner edges are matched via Ω.I."""
        mig = Mig()
        x, y, u, v, z = (mig.add_pi(n) for n in "xyuvz")
        inner1 = mig.add_maj(~x, ~y, u)
        inner2 = mig.add_maj(x, y, v)
        root = mig.add_maj(~inner1, inner2, z)  # ~inner1 = ⟨x y ~u⟩
        mig.add_po(root, "f")
        result = pass_distributivity_rl(mig)
        assert result.num_gates == 2
        assert truth_tables(result)["f"] == truth_tables(mig)["f"]


class TestAssociativity:
    def test_enables_sharing(self):
        """⟨x u ⟨y u z⟩⟩ where ⟨y u x⟩ already exists → node reuse."""
        mig = Mig()
        x, y, z, u = (mig.add_pi(n) for n in "xyzu")
        existing = mig.add_maj(y, u, x)
        inner = mig.add_maj(y, u, z)
        root = mig.add_maj(x, u, inner)
        mig.add_po(root, "f")
        mig.add_po(existing, "g")
        before = mig.cleanup()[0].num_gates
        result = pass_associativity(mig)
        assert result.num_gates < before
        assert truth_tables(result) == truth_tables(mig)


class TestCommutativity:
    def test_orders_complement_to_b_slot(self):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        g = mig.add_maj(~a, b, c)
        mig.add_po(g, "f")
        result = pass_commutativity(mig)
        gate = next(iter(result.gates()))
        children = result.children(gate)
        assert children[1].inverted  # slot B holds the complemented child

    def test_best_assignment_with_const_and_complement(self):
        """⟨0 ~a b⟩: B takes the complement (free), A the plain PI (free),
        Z the constant (1 instruction) — total cost 1, the global optimum."""
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        g = mig.add_maj(Signal.CONST0, ~a, b)
        mig.add_po(g, "f")
        result = pass_commutativity(mig)
        children = result.children(next(iter(result.gates())))
        assert children[1].inverted  # B = complemented child
        assert not children[0].inverted and not children[0].is_const  # A = plain PI
        assert children[2].is_const  # Z = constant (cheapest destination)

    def test_function_preserved_exhaustive(self):
        mig = random_mig(3, num_pis=4, num_gates=15)
        assert truth_tables(pass_commutativity(mig)) == truth_tables(mig)


class TestPushInverters:
    def test_flips_double_complement(self):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        g = mig.add_maj(~a, ~b, c)
        mig.add_po(g, "f")
        result = pass_push_inverters(mig)
        assert complement_stats(result).multi_complement_gates == 0
        assert truth_tables(result)["f"] == truth_tables(mig)["f"]

    def test_threshold_three_keeps_double(self):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        mig.add_po(mig.add_maj(~a, ~b, c), "f")
        mig.add_po(mig.add_maj(~a, ~b, ~c), "g")
        result = pass_push_inverters(mig, threshold=3)
        histogram = complement_stats(result).by_count
        assert histogram[3] == 0  # triple eliminated
        assert histogram[2] == 1  # double left alone

    def test_constant_complements_not_counted(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        g = mig.add_maj(~a, b, Signal.CONST1)  # one real complement only
        mig.add_po(g, "f")
        result = pass_push_inverters(mig)
        gate = next(iter(result.gates()))
        assert result.children(gate) == (~a, b, Signal.CONST1)


class TestComplementaryAssociativity:
    def test_identity_fires_and_simplifies(self):
        """⟨x u ⟨x̄? ...⟩⟩: inner ū replaced by x lets Ω.M collapse."""
        mig = Mig()
        x, u, z = mig.add_pi("x"), mig.add_pi("u"), mig.add_pi("z")
        inner = mig.add_maj(x, ~u, z)  # contains ū and x → becomes ⟨x x z⟩ = x
        root = mig.add_maj(x, u, inner)
        mig.add_po(root, "f")
        result = pass_complementary_associativity(mig)
        assert result.num_gates < mig.num_gates
        assert truth_tables(result)["f"] == truth_tables(mig)["f"]

    def test_skipped_when_not_free(self):
        mig = Mig()
        x, u, y, z = (mig.add_pi(n) for n in "xuyz")
        inner = mig.add_maj(y, ~u, z)  # replacement ⟨y x z⟩ would be a new gate
        root = mig.add_maj(x, u, inner)
        mig.add_po(root, "f")
        result = pass_complementary_associativity(mig)
        assert result.num_gates == mig.num_gates

    @pytest.mark.parametrize("seed", range(6))
    def test_preserves_function(self, seed):
        mig = random_mig(seed, num_pis=5, num_gates=25, num_pos=3)
        assert truth_tables(pass_complementary_associativity(mig)) == truth_tables(mig)

    @pytest.mark.parametrize("seed", range(4))
    def test_psi_rewriting_preserves_function(self, seed):
        from repro.core.rewriting import RewriteOptions, rewrite_for_plim

        mig = random_mig(seed + 50, num_pis=5, num_gates=30, num_pos=3)
        rewritten = rewrite_for_plim(mig, RewriteOptions(use_psi=True))
        assert truth_tables(rewritten) == truth_tables(mig)
        assert rewritten.num_gates <= mig.cleanup()[0].num_gates


class TestCommonPairAllShared:
    """Regression: two inner gates whose *effective* child triples are the
    same multiset (one gate is the structural complement-dual of the
    other, so strashing cannot merge them).  ``_common_pair`` must hand
    both sides the *same* third-signal leftover — handing side b a
    different one rewrote ``⟨g ¬g' x⟩`` cones to the wrong function."""

    def _dual_cone(self):
        mig = Mig()
        x1, x2, x3 = mig.add_pi("x1"), mig.add_pi("x2"), mig.add_pi("x3")
        g5 = mig.add_maj(x2, ~x3, ~x1)
        g6 = mig.add_maj(x1, x3, ~x2)  # functionally ~g5, structurally distinct
        mig.add_po(mig.add_maj(g5, ~g6, x1), "f")
        return mig

    def test_common_pair_same_leftover_on_both_sides(self):
        from repro.mig.algebra import _common_pair
        from repro.mig.signal import Signal

        a = tuple(Signal.make(n, inv) for n, inv in ((2, False), (3, True), (1, True)))
        b = tuple(Signal.make(n, inv) for n, inv in ((1, True), (3, True), (2, False)))
        (x, y), p, q = _common_pair(a, b)
        assert p == q
        assert sorted(map(int, (x, y, p))) == sorted(map(int, a))

    def test_distributivity_pass_preserves_function(self):
        mig = self._dual_cone()
        assert truth_tables(pass_distributivity_rl(mig)) == truth_tables(mig)

    def test_both_engines_preserve_function(self):
        from repro.core.rewriting import rewrite_for_plim

        mig = self._dual_cone()
        for rewrite in (rewrite_for_plim, rewrite_reference):
            rewritten = rewrite(mig)
            assert truth_tables(rewritten) == truth_tables(mig), rewrite.__name__
