"""Unit tests for repro.core.schedule (§4.2.1 candidate selection).

Includes the two Fig. 4 scenarios: (a) prefer the candidate with more
releasing children; (b) parent-level dominance defers results that are
consumed late.  The heap-backed schedulers the reference compiler uses
live in ``tests/compile_reference.py`` and are tested here too.
"""

import random

import pytest

from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.schedule import (
    CandidateKey,
    NO_PARENT_LEVEL,
    candidate_key_fn,
    make_key,
)
from repro.mig.context import AnalysisContext
from repro.mig.graph import Mig
from repro.mig.signal import Signal

from compile_reference import IndexScheduler, PriorityScheduler
from conftest import random_mig


def key(releasing=0, unblocks=0, lo=0, hi=0, index=0):
    return CandidateKey(releasing, unblocks, lo, hi, index)


class TestCandidateKey:
    def test_releasing_wins(self):
        assert key(releasing=2, index=9) < key(releasing=1, index=1)

    def test_unblocks_second(self):
        assert key(unblocks=1, index=9) < key(unblocks=0, index=1)

    def test_level_dominance(self):
        # u's highest parent below v's lowest parent → u first
        assert key(lo=1, hi=2, index=9) < key(lo=3, hi=5, index=1)
        assert not (key(lo=3, hi=5, index=1) < key(lo=1, hi=2, index=9))

    def test_overlapping_levels_fall_to_index(self):
        assert key(lo=1, hi=4, index=1) < key(lo=2, hi=3, index=2)

    def test_index_tiebreak(self):
        assert key(index=3) < key(index=5)

    def test_make_key_no_parents(self):
        k = make_key(7, 1, [])
        assert k.min_parent_level == NO_PARENT_LEVEL
        assert k.index == 7

    def test_make_key_with_parents(self):
        k = make_key(7, 0, [3, 1, 2])
        assert (k.min_parent_level, k.max_parent_level) == (1, 3)

    def test_level_comparator_is_not_transitive(self):
        """Why the level-rule queue keeps its exact push sequence: the
        heap's output depends on more than the keys it holds."""
        k1 = key(lo=1, hi=2, index=3)
        k2 = key(lo=3, hi=4, index=1)
        k3 = key(lo=2, hi=3, index=2)
        assert k1 < k2 and k2 < k3 and k3 < k1


class TestIntegerKeys:
    """Without the level rule one ``int`` carries the whole key."""

    @staticmethod
    def tables(mig, seed):
        rng = random.Random(seed)
        remaining = [rng.choice((0, 1, 1, 2, 3)) for _ in range(len(mig))]
        pending = [rng.choice((0, 1, 1, 2, 3)) for _ in range(len(mig))]
        return remaining, pending

    @pytest.mark.parametrize("unblocking", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_sorts_like_the_tuple_comparator(self, unblocking, seed):
        mig = random_mig(seed, num_gates=60)
        ctx = AnalysisContext(mig)
        remaining, pending = self.tables(mig, seed)
        options = CompilerOptions(unblocking_rule=unblocking)
        packed = candidate_key_fn(options, ctx, remaining, pending)

        def reference(node):
            releasing = sum(
                1
                for child in mig.children(node)
                if mig.is_gate(child.node) and remaining[child.node] == 1
            )
            unblocks = sum(1 for p in ctx.parents[node] if pending[p] == 1)
            return (-releasing, -unblocks if unblocking else 0, node)

        gates = list(mig.gates())
        assert sorted(gates, key=packed) == sorted(gates, key=reference)
        mask = (1 << len(mig).bit_length()) - 1
        assert all(packed(v) & mask == v for v in gates)

    def test_index_scheduling_keys_by_node(self):
        mig = random_mig(1)
        remaining, pending = self.tables(mig, 1)
        key_fn = candidate_key_fn(
            CompilerOptions.no_selection(), AnalysisContext(mig), remaining, pending
        )
        assert [key_fn(v) for v in mig.gates()] == list(mig.gates())

    def test_level_rule_keys_are_candidate_keys(self):
        mig = random_mig(2)
        remaining, pending = self.tables(mig, 2)
        key_fn = candidate_key_fn(
            CompilerOptions.paper_selection(), AnalysisContext(mig), remaining, pending
        )
        assert all(isinstance(key_fn(v), CandidateKey) for v in mig.gates())


class TestIndexScheduler:
    def test_pops_in_index_order(self):
        sched = IndexScheduler()
        for node in (5, 2, 9):
            sched.push(node)
        assert [sched.pop() for _ in range(3)] == [2, 5, 9]

    def test_contains_and_len(self):
        sched = IndexScheduler()
        sched.push(4)
        assert 4 in sched and len(sched) == 1
        sched.pop()
        assert 4 not in sched and len(sched) == 0

    def test_refresh_is_noop(self):
        sched = IndexScheduler()
        sched.push(1)
        sched.refresh(1)
        assert len(sched) == 1


class TestPriorityScheduler:
    def test_pops_by_key(self):
        keys = {1: key(releasing=0, index=1), 2: key(releasing=2, index=2)}
        sched = PriorityScheduler(lambda n: keys[n])
        sched.push(1)
        sched.push(2)
        assert sched.pop() == 2

    def test_refresh_promotes(self):
        keys = {1: key(releasing=0, index=1), 2: key(releasing=0, index=2)}
        sched = PriorityScheduler(lambda n: keys[n])
        sched.push(1)
        sched.push(2)
        keys[2] = key(releasing=3, index=2)
        sched.refresh(2)
        assert sched.pop() == 2

    def test_refresh_unknown_node_noop(self):
        sched = PriorityScheduler(lambda n: key(index=n))
        sched.push(1)
        sched.refresh(99)
        assert len(sched) == 1

    def test_stale_entries_skipped(self):
        keys = {1: key(index=1), 2: key(index=2)}
        sched = PriorityScheduler(lambda n: keys[n])
        sched.push(1)
        sched.push(2)
        keys[1] = key(index=9)
        sched.refresh(1)
        assert sched.pop() == 2
        assert sched.pop() == 1
        assert len(sched) == 0


def compile_order(mig, **options):
    """Translation order of gates, recovered from instruction comments."""
    program = PlimCompiler(
        CompilerOptions(fix_output_polarity=False, reorder="none", **options)
    ).compile(mig)
    order = []
    for instr in program:
        if instr.comment.split("<- ")[-1].startswith("n"):
            order.append(instr.comment.split("<- ")[-1])
    return order


class TestFig4Principles:
    def test_fig4a_more_releasing_children_first(self):
        """u (two single-fanout children) beats v (one) — Fig. 4(a)."""
        mig = Mig()
        a, b, c, d = (mig.add_pi(x) for x in "abcd")
        # shared child (fanout 2) and private children
        shared = mig.add_maj(a, b, Signal.CONST0)
        pu1 = mig.add_maj(a, c, Signal.CONST0)
        pu2 = mig.add_maj(b, d, Signal.CONST1)
        pv1 = mig.add_maj(c, d, Signal.CONST0)
        v = mig.add_maj(pv1, shared, a)  # one releasing child (pv1)
        u = mig.add_maj(pu1, pu2, b)  # two releasing children
        root = mig.add_maj(u, v, shared)
        mig.add_po(root, "f")
        order = compile_order(mig)
        # u (higher index!) must still be translated before v
        assert order.index(f"n{u.node}") < order.index(f"n{v.node}")

    def test_fig4b_level_rule_defers_early_allocation(self):
        """With the level rule, a candidate consumed only at the root is
        deferred until the candidates consumed lower are done — Fig. 4(b)."""
        mig = Mig()
        a, b, c, d = (mig.add_pi(x) for x in "abcd")
        u = mig.add_maj(a, b, Signal.CONST0)  # consumed only by the root
        v = mig.add_maj(c, d, Signal.CONST0)  # consumed by mid
        mid = mig.add_maj(v, a, Signal.CONST1)
        mid2 = mig.add_maj(mid, b, Signal.CONST0)
        root = mig.add_maj(u, mid2, c)
        mig.add_po(root, "f")
        order = compile_order(mig, level_rule=True)
        assert order.index(f"n{v.node}") < order.index(f"n{u.node}")


class TestUnblockingRule:
    def test_last_missing_child_preferred(self):
        mig = Mig()
        a, b, c, d = (mig.add_pi(x) for x in "abcd")
        # x1 feeds parent p together with x2; computing x2 after x1 unblocks p.
        x1 = mig.add_maj(a, b, Signal.CONST0)
        x2 = mig.add_maj(c, d, Signal.CONST0)
        other = mig.add_maj(a, d, Signal.CONST1)
        p = mig.add_maj(x1, x2, a)
        root = mig.add_maj(p, other, b)
        mig.add_po(root, "f")
        order = compile_order(mig, unblocking_rule=True)
        # after x1, the unblocking rule pulls x2 ahead of `other`
        i1, i2, io = (order.index(f"n{n.node}") for n in (x1, x2, other))
        assert i1 < i2 < io
