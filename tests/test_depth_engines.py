"""Differential tests: the worklist depth engine against the rebuild oracle.

The in-place depth rewriter (``objective="depth"`` on the worklist
engine) must be functionally equivalent to the legacy
``pass_associativity_depth`` pipeline (``tests/rewrite_reference.py``)
on every registry circuit and on
random MIGs, reach a depth no worse than the oracle's, and never grow the
graph beyond the Ω.A reshaping (i.e. never beyond the cleaned input's gate
count).  A gated timing test asserts the
headline claim: the worklist depth engine is at least 2x faster than the
oracle on the representative ``voter``/``sin`` circuits at default scale.
"""

import os
import time

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.errors import MigError, ReproError
from repro.mig.algebra import try_associativity_depth
from repro.mig.analysis import depth, levels
from repro.mig.equivalence import equivalent
from repro.mig.graph import Mig

from conftest import random_mig
from rewrite_reference import rewrite_reference

DEPTH_WORKLIST = RewriteOptions(objective="depth")


def test_unknown_objective_rejected():
    with pytest.raises(ReproError, match="unknown rewrite objective"):
        rewrite_for_plim(build("ctrl", "ci"), RewriteOptions(objective="bogus"))


def test_depth_worklist_does_not_mutate_input():
    mig = build("int2float", "ci")
    nodes, gates, edits = len(mig), mig.num_gates, mig.edit_count
    rewrite_for_plim(mig, DEPTH_WORKLIST)
    assert (len(mig), mig.num_gates, mig.edit_count) == (nodes, gates, edits)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_depth_engines_equivalent_and_worklist_never_deeper(name):
    """Equivalent functions; worklist depth <= oracle depth; size bounded."""
    mig = build(name, "ci")
    clean = mig.cleanup()[0]
    worklist = rewrite_for_plim(mig, DEPTH_WORKLIST)
    rebuild = rewrite_reference(mig, DEPTH_WORKLIST)
    assert equivalent(worklist, rebuild)
    assert depth(worklist) <= depth(rebuild)
    assert worklist.num_gates <= clean.num_gates


@pytest.mark.parametrize("seed", range(12))
def test_depth_engines_equivalent_on_random_migs(seed):
    mig = random_mig(seed, num_pis=6, num_gates=40, num_pos=3, invert_probability=0.5)
    clean = mig.cleanup()[0]
    worklist = rewrite_for_plim(mig, DEPTH_WORKLIST)
    rebuild = rewrite_reference(mig, DEPTH_WORKLIST)
    assert equivalent(worklist, rebuild)
    assert depth(worklist) <= depth(rebuild)
    assert worklist.num_gates <= clean.num_gates


@pytest.mark.parametrize(
    "rewrite", [rewrite_for_plim, rewrite_reference], ids=["worklist", "rebuild"]
)
def test_rewrite_depth_wrapper_dispatches(rewrite):
    """What the removed ``rewrite_depth(mig, engine=...)`` wrapper did:
    ``objective="depth"`` runs on the engine and on its oracle."""
    mig = build("int2float", "ci")
    result = rewrite(mig, DEPTH_WORKLIST)
    assert equivalent(result, mig.cleanup()[0])
    assert depth(result) <= depth(mig.cleanup()[0])


class TestIncrementalLevels:
    def test_enable_levels_requires_inplace(self):
        mig = random_mig(1)
        with pytest.raises(MigError, match="enable_inplace"):
            mig.enable_levels()

    def test_level_queries_require_enable(self):
        mig = random_mig(2)
        mig.enable_inplace()
        with pytest.raises(MigError, match="enable_levels"):
            mig.level_of(1)
        with pytest.raises(MigError, match="enable_levels"):
            mig.current_depth()

    def test_rule_requires_levels(self):
        mig = random_mig(3)
        mig.enable_inplace()
        gate = next(mig.gates())
        with pytest.raises(MigError, match="enable_levels"):
            try_associativity_depth(mig, gate)

    @pytest.mark.parametrize("seed", range(8))
    def test_levels_stay_exact_under_depth_rewriting(self, seed):
        """After arbitrary in-place depth rewriting the maintained levels
        must equal a from-scratch recomputation, and current_depth() the
        full-traversal depth."""
        mig = random_mig(seed, num_pis=6, num_gates=35, invert_probability=0.4)
        work, _ = mig.rebuild()
        work.enable_inplace()
        work.enable_levels()
        fanouts = work.fanout_snapshot()
        for v in list(work.topo_gates()):
            if work.is_gate(v):
                try_associativity_depth(work, v, fanouts)
        fresh = levels(work)
        for v in work.topo_gates():
            assert work.level_of(v) == fresh[v], v
        pos = [po.node for po in work.pos()]
        assert work.current_depth() == max(fresh[n] for n in pos)

    def test_new_gates_get_levels(self):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        g = mig.add_maj(a, b, c)
        mig.add_po(g, "f")
        mig.enable_inplace()
        mig.enable_levels()
        d = mig.add_pi("d")
        h = mig.add_maj(g, a, d)
        assert mig.level_of(d.node) == 0
        assert mig.level_of(h.node) == 2


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_TIMING") == "1",
    reason="timing assertions disabled (REPRO_SKIP_TIMING=1)",
)
def test_depth_worklist_at_least_two_times_faster():
    """Acceptance: >= 2x faster than the oracle on voter/sin at default scale."""

    def timed(rewrite, mig, options):
        start = time.perf_counter()
        result = rewrite(mig, options)
        return time.perf_counter() - start, result

    for name in ("voter", "sin"):
        mig = build(name, "default")
        # Warm up allocators/caches so the comparison is steady-state, and
        # take the best of a few runs so scheduler noise cannot fail CI.
        rewrite_for_plim(mig, DEPTH_WORKLIST)
        worklist_s, worklist = min(
            (timed(rewrite_for_plim, mig, DEPTH_WORKLIST) for _ in range(3)),
            key=lambda pair: pair[0],
        )
        rebuild_s, rebuild = min(
            (timed(rewrite_reference, mig, DEPTH_WORKLIST) for _ in range(2)),
            key=lambda pair: pair[0],
        )

        assert depth(worklist) <= depth(rebuild)
        assert worklist_s * 2 <= rebuild_s, (
            f"{name}: worklist {worklist_s:.3f}s vs rebuild {rebuild_s:.3f}s "
            f"({rebuild_s / worklist_s:.2f}x)"
        )
