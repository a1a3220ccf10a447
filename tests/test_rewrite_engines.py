"""Differential tests: the worklist engine against the rebuild oracle.

The in-place worklist engine must be functionally equivalent to the
original rebuild pass pipeline (``tests/rewrite_reference.py``) on every
registry circuit and on random MIGs, and never worse in #N, estimated instructions, or the actual
compiled #I/#R of the Table 1 configurations.  A gated timing test asserts
the headline claim: the worklist engine is at least 3x faster on the
representative ``voter``/``sin`` circuits at default scale.
"""

import os
import time

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.cost import estimate_instructions
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.errors import ReproError
from repro.eval.table1 import measure_mig
from repro.mig.algebra import try_associativity
from repro.mig.equivalence import equivalent
from repro.mig.graph import Mig
from repro.mig.signal import Signal

from conftest import random_mig
from rewrite_reference import rewrite_reference

WORKLIST = RewriteOptions()


def test_unknown_engine_rejected():
    with pytest.raises(ReproError, match="unknown rewrite engine"):
        rewrite_for_plim(build("ctrl", "ci"), RewriteOptions(engine="bogus"))


def test_worklist_does_not_mutate_input():
    mig = build("int2float", "ci")
    nodes, gates, edits = len(mig), mig.num_gates, mig.edit_count
    rewrite_for_plim(mig, WORKLIST)
    assert (len(mig), mig.num_gates, mig.edit_count) == (nodes, gates, edits)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_engines_equivalent_and_worklist_never_larger(name):
    """Both engines compute the same functions; worklist is never larger."""
    mig = build(name, "ci")
    worklist = rewrite_for_plim(mig, WORKLIST)
    rebuild = rewrite_reference(mig, WORKLIST)
    assert equivalent(worklist, rebuild)
    assert worklist.num_gates <= rebuild.num_gates
    assert estimate_instructions(worklist) <= estimate_instructions(rebuild)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_table1_metrics_identical_or_better(name, measure_reference):
    """The acceptance bar: every Table 1 metric identical or better."""
    worklist = measure_mig(build(name, "ci"), name)
    rebuild = measure_reference(build(name, "ci"), name)
    for attr in ("rewr_n", "rewr_i", "rewr_r", "full_i", "full_r"):
        assert getattr(worklist, attr) <= getattr(rebuild, attr), (
            f"{name}: {attr} regressed — worklist {getattr(worklist, attr)} "
            f"vs rebuild {getattr(rebuild, attr)}"
        )


def _redundant_match() -> Mig:
    """``⟨a b̄ ⟨a b ⟨a 0 b⟩⟩⟩ = a``: once Ω.A folds the middle gate into
    ``⟨a 0 b⟩``, the top gate is an Ω.A match whose second inner child
    is the complement of the outer ``b̄``."""
    mig = Mig(name="redundant")
    a, b = mig.add_pi("a"), mig.add_pi("b")
    inner = mig.add_maj(a, Signal.CONST0, b)
    middle = mig.add_maj(a, b, inner)
    mig.add_po(mig.add_maj(a, ~b, middle), "f")
    return mig


def test_associativity_collapses_redundant_match():
    mig = Mig()
    a, b = mig.add_pi("a"), mig.add_pi("b")
    inner = mig.add_maj(a, Signal.CONST0, b)
    top = mig.add_maj(a, ~b, inner)
    mig.add_po(top, "f")
    mig.enable_inplace()
    try_associativity(mig, top.node)
    assert not mig.is_gate(top.node)
    assert list(mig.pos()) == [a]
    assert mig.compact().num_gates == 0


def test_worklist_never_larger_on_redundant_match():
    mig = _redundant_match()
    worklist = rewrite_for_plim(mig, WORKLIST)
    rebuild = rewrite_reference(mig, WORKLIST)
    assert equivalent(worklist, mig)
    assert worklist.num_gates == rebuild.num_gates == 0


@pytest.mark.parametrize("seed", range(12))
def test_engines_equivalent_on_random_migs(seed):
    mig = random_mig(seed, num_pis=6, num_gates=40, num_pos=3, invert_probability=0.5)
    worklist = rewrite_for_plim(mig, WORKLIST)
    rebuild = rewrite_reference(mig, WORKLIST)
    assert equivalent(worklist, rebuild)
    assert worklist.num_gates <= rebuild.num_gates
    assert estimate_instructions(worklist) <= estimate_instructions(rebuild)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "options_kwargs",
    [
        {"use_psi": True},
        {"po_negation_cost": 2},
        {"effort": 1},
        {"effort": 0},
    ],
    ids=lambda kw: next(iter(kw.items()))[0] + "=" + str(next(iter(kw.items()))[1]),
)
def test_engines_equivalent_under_option_sets(seed, options_kwargs):
    """Every RewriteOptions knob behaves equivalently under both engines."""
    mig = random_mig(seed + 50, num_pis=5, num_gates=30, invert_probability=0.5)
    options = RewriteOptions(**options_kwargs)
    worklist = rewrite_for_plim(mig, options)
    rebuild = rewrite_reference(mig, options)
    assert equivalent(worklist, rebuild)
    assert worklist.num_gates <= rebuild.num_gates


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_TIMING") == "1",
    reason="timing assertions disabled (REPRO_SKIP_TIMING=1)",
)
def test_worklist_at_least_three_times_faster():
    """Acceptance: >= 3x faster on voter/sin at default scale."""

    def timed(rewrite, mig, options):
        start = time.perf_counter()
        result = rewrite(mig, options)
        return time.perf_counter() - start, result

    for name in ("voter", "sin"):
        mig = build(name, "default")
        # Warm up allocators/caches so the comparison is steady-state, and
        # take the best of a few runs so scheduler noise cannot fail CI.
        rewrite_for_plim(mig, WORKLIST)
        worklist_s, worklist = min(
            (timed(rewrite_for_plim, mig, WORKLIST) for _ in range(3)),
            key=lambda pair: pair[0],
        )
        rebuild_s, rebuild = min(
            (timed(rewrite_reference, mig, WORKLIST) for _ in range(2)),
            key=lambda pair: pair[0],
        )

        assert worklist.num_gates <= rebuild.num_gates
        assert worklist_s * 3 <= rebuild_s, (
            f"{name}: worklist {worklist_s:.3f}s vs rebuild {rebuild_s:.3f}s "
            f"({rebuild_s / worklist_s:.2f}x)"
        )
