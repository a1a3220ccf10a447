"""Unit and integration tests for repro.core.rewriting (Algorithm 1)."""

import pytest

from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.cost import estimate_instructions
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.analysis import complement_stats
from repro.mig.graph import Mig
from repro.mig.simulate import truth_tables

from conftest import random_mig
from rewrite_reference import pass_inverter_cost_aware


@pytest.mark.parametrize("seed", range(8))
def test_rewriting_preserves_function(seed):
    mig = random_mig(seed, num_pis=5, num_gates=30, num_pos=3)
    rewritten = rewrite_for_plim(mig)
    assert truth_tables(rewritten) == truth_tables(mig)


@pytest.mark.parametrize("seed", range(8))
def test_rewriting_never_grows(seed):
    mig = random_mig(seed, num_pis=5, num_gates=30, num_pos=3)
    baseline = mig.cleanup()[0].num_gates
    assert rewrite_for_plim(mig).num_gates <= baseline


@pytest.mark.parametrize("seed", range(8))
def test_rewriting_never_increases_estimated_cost(seed):
    mig = random_mig(seed, num_pis=5, num_gates=30, num_pos=3)
    baseline = estimate_instructions(mig.cleanup()[0])
    assert estimate_instructions(rewrite_for_plim(mig)) <= baseline


@pytest.mark.parametrize("seed", range(8))
def test_no_triple_complement_gates_remain(seed):
    """The final Ω.I(R→L) sweep eliminates the most costly case."""
    mig = random_mig(seed, num_pis=5, num_gates=30, invert_probability=0.6)
    rewritten = rewrite_for_plim(mig)
    assert complement_stats(rewritten).by_count[3] == 0


class TestOptions:
    def test_effort_zero_is_identity_modulo_order(self):
        mig = random_mig(1, num_pis=4, num_gates=20)
        rewritten = rewrite_for_plim(mig, RewriteOptions(effort=0))
        assert rewritten.num_gates == mig.cleanup()[0].num_gates
        assert truth_tables(rewritten) == truth_tables(mig)

    def test_size_rules_only(self):
        mig = random_mig(2, num_pis=5, num_gates=30, invert_probability=0.6)
        rewritten = rewrite_for_plim(
            mig, RewriteOptions(inverter_rules=False)
        )
        assert truth_tables(rewritten) == truth_tables(mig)

    def test_inverter_rules_only(self):
        mig = random_mig(3, num_pis=5, num_gates=30, invert_probability=0.6)
        rewritten = rewrite_for_plim(mig, RewriteOptions(size_rules=False))
        assert truth_tables(rewritten) == truth_tables(mig)
        assert complement_stats(rewritten).by_count[3] == 0

    def test_early_exit_matches_full_run(self):
        mig = random_mig(4, num_pis=5, num_gates=30)
        fast = rewrite_for_plim(mig, RewriteOptions(effort=8, early_exit=True))
        slow = rewrite_for_plim(mig, RewriteOptions(effort=8, early_exit=False))
        assert truth_tables(fast) == truth_tables(slow)
        assert fast.num_gates == slow.num_gates


class TestInverterCostAware:
    def test_flips_isolated_double_complement(self):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        g = mig.add_maj(~a, ~b, c)
        mig.add_po(g, "f")
        result = pass_inverter_cost_aware(mig)
        gate = next(iter(result.gates()))
        inverted = sum(
            1 for s in result.children(gate) if s.inverted and not s.is_const
        )
        assert inverted == 1
        assert result.pos()[0].inverted  # pushed onto the output edge

    def test_unfavourable_flip_avoided(self):
        """Flipping is skipped when it would spoil two ideal parents.

        g = ⟨~a ~b c⟩ (cost 2) feeds two parents that each already have
        exactly one complemented child and would gain a second one (+2
        each): delta = -2 + 4 > 0 → keep.
        """
        mig = Mig()
        a, b, c, d = (mig.add_pi(x) for x in "abcd")
        g = mig.add_maj(~a, ~b, c)
        p1 = mig.add_maj(g, ~d, a)
        p2 = mig.add_maj(g, ~d, b)
        mig.add_po(p1, "f")
        mig.add_po(p2, "h")
        result = pass_inverter_cost_aware(mig)
        flipped_gates = [
            v
            for v in result.gates()
            if sum(1 for s in result.children(v) if s.inverted and not s.is_const) >= 2
        ]
        assert flipped_gates  # the double-complement gate survived

    def test_favourable_flip_taken_through_parent(self):
        """g feeds a parent without complements: flip makes parent ideal."""
        mig = Mig()
        a, b, c, d = (mig.add_pi(x) for x in "abcd")
        g = mig.add_maj(~a, ~b, c)
        p = mig.add_maj(g, d, a)
        mig.add_po(p, "f")
        result = pass_inverter_cost_aware(mig)
        for v in result.gates():
            inverted = sum(
                1 for s in result.children(v) if s.inverted and not s.is_const
            )
            assert inverted <= 1

    def test_po_cost_steers_decision(self):
        """With honest PO accounting, a flip that inverts the output of an
        otherwise-isolated gate is charged and can become unfavourable."""
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        mig.add_po(mig.add_maj(~a, ~b, c), "f")
        free = pass_inverter_cost_aware(mig, po_negation_cost=0)
        taxed = pass_inverter_cost_aware(mig, po_negation_cost=4)
        assert free.pos()[0].inverted
        assert not taxed.pos()[0].inverted


class TestEndToEndImprovement:
    def test_rewriting_improves_real_programs(self):
        """On complement-rich graphs, rewriting lowers actual #I."""
        total_before = total_after = 0
        compiler = PlimCompiler(CompilerOptions(fix_output_polarity=False))
        for seed in range(5):
            mig = random_mig(seed + 100, num_pis=6, num_gates=60, invert_probability=0.5)
            total_before += compiler.compile(mig).num_instructions
            total_after += compiler.compile(rewrite_for_plim(mig)).num_instructions
        assert total_after < total_before


class TestWorklistPhaseDeadNode:
    def test_rule_that_kills_node_stops_the_rule_chain(self):
        """Regression: a rule can fire and still return an empty affected
        set (replacement is a literal, ``v`` was read only by POs); the
        phase must not run the next rule on the tombstoned node."""
        from repro.core.rewriting import _worklist_phase
        from repro.mig.algebra import try_distributivity_rl
        from repro.mig.graph import Mig

        def collapse_to_a(mig, v, fanouts=None, depth_budget=None):
            """A rule that replaces the gate by its first child."""
            return mig.replace_node(v, mig.children(v)[0])

        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        trivial = mig.add_maj(a, a, b, simplify=False)  # Ω.M-collapsible
        mig.add_po(trivial, "f")
        mig.enable_inplace()
        # collapse_to_a replaces the gate by ``a`` (affected = empty: the
        # only reader is a PO) and tombstones it; before the fix the phase
        # fell through to try_distributivity_rl, which raised MigError on
        # the dead node.
        _worklist_phase(mig, (collapse_to_a, try_distributivity_rl))
        assert mig.num_gates == 0
        assert mig.pos()[0] == a
