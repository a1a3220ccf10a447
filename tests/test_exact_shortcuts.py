"""Work skipped because it provably changes nothing.

Three shortcuts must leave every output byte where it was:

* ``reorder="best"`` compiles the DFS image first and cuts the as-given
  compile off as soon as its partial program provably loses; the result
  must equal compiling both orders in full and applying the selection
  rule (fewest work RRAMs, then fewest instructions, ties to as-given);
* an Ω.I flip onto a fresh gate runs :meth:`Mig.flip_enc` instead of the
  generic ``add_maj_enc`` + ``inherit_order`` + ``replace_node`` path, and
  must leave the same full graph state;
* ``AnalysisContext.cleaned()`` skips the cleanup copy when
  :meth:`Mig.is_clean` proves it would rebuild the same graph.

The one contract change is pinned too: with ``max_work_cells`` set, an
as-given order that would run out of cells only after it was cut off no
longer raises; the DFS program comes back, within the budget.
"""

from __future__ import annotations

import copy
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.rewriting as rewriting
from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.core.translate_fast import FastTranslationState
from repro.errors import CompilationError
from repro.mig.analysis import depth
from repro.mig.context import AnalysisContext
from repro.mig.graph import Mig
from repro.mig.reorder import reorder_dfs
from repro.mig.signal import Signal
from repro.plim.verify import verify_program

from conftest import random_mig
from property.strategies import migs

RANDOM_SEEDS = range(20)


def random_case(seed: int) -> Mig:
    return random_mig(seed, num_pis=6, num_gates=60, num_pos=5, invert_probability=0.4)


# ----------------------------------------------------------------------
# the cut-off of the losing node order
# ----------------------------------------------------------------------


def compile_dfs(mig: Mig, **options):
    """The DFS candidate of ``reorder="best"`` on its own: the DFS image of
    the cleaned graph (itself clean) compiled as given."""
    image = reorder_dfs(AnalysisContext(mig).cleaned().mig)
    return PlimCompiler(CompilerOptions(reorder="none", **options)).compile(image)


def compile_both_in_full(mig: Mig, **options):
    """The selection rule on two finished programs, as-given compiled first."""
    as_given = PlimCompiler(CompilerOptions(reorder="none", **options)).compile(mig)
    dfs = compile_dfs(mig, **options)
    cost = lambda program: (program.num_rrams, program.num_instructions)  # noqa: E731
    return dfs if cost(dfs) < cost(as_given) else as_given


def counting_gate_steps(counts: list[int]):
    """Patch the per-gate step so each translated gate adds 1 to
    ``counts[-1]``."""
    real_gate_step = FastTranslationState.gate_step

    def gate_step(self, naive=False):
        step = real_gate_step(self, naive)

        def counted(node):
            counts[-1] += 1
            step(node)

        return counted

    return mock.patch.object(FastTranslationState, "gate_step", gate_step)


def translated_per_order(mig: Mig, **options) -> tuple[int, int, int]:
    """``(gates, DFS gates translated, as-given gates translated)`` of one
    ``reorder="best"`` compile."""
    counts = []

    class Recorder(PlimCompiler):
        def _compile_ordered(self, ctx, bound=None):
            counts.append(0)
            return super()._compile_ordered(ctx, bound)

    with counting_gate_steps(counts):
        Recorder(CompilerOptions(**options)).compile(mig)
    dfs_gates, as_given_gates = counts
    return AnalysisContext(mig).cleaned().mig.num_gates, dfs_gates, as_given_gates


@pytest.fixture(scope="module")
def registry_cases():
    """Every registry circuit at ci and default scale, raw and rewritten."""
    cases = {}
    for scale in ("ci", "default"):
        for name in BENCHMARK_NAMES:
            mig = build(name, scale)
            cases[f"{name}@{scale}"] = mig
            cases[f"{name}@{scale}/rewritten"] = rewrite_for_plim(mig)
    return cases


def test_cutoff_matches_both_orders_in_full(registry_cases):
    cut = 0
    for label, mig in registry_cases.items():
        fast = PlimCompiler().compile(mig).to_text()
        assert fast == compile_both_in_full(mig).to_text(), label
        gates, _, as_given = translated_per_order(mig)
        cut += as_given < gates
    assert cut  # the cut-off is exercised, not just compiled around


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
@pytest.mark.parametrize(
    "options",
    [{}, {"allocator_policy": "lifo"}, {"unblocking_rule": True}, {"complement_caching": False}],
    ids=["default", "lifo", "unblocking", "nocache"],
)
def test_cutoff_matches_both_orders_on_random_migs(seed, options):
    mig = random_case(seed)
    for graph in (mig, rewrite_for_plim(mig)):
        fast = PlimCompiler(CompilerOptions(**options)).compile(graph)
        assert fast.to_text() == compile_both_in_full(graph, **options).to_text()


def test_losing_order_stops_early(registry_cases):
    """Rewritten voter@default: DFS (27 #R) beats as-given (101 #R) by
    far, and the as-given compile stops before a tenth of the gates."""
    gates, dfs_gates, as_given_gates = translated_per_order(
        registry_cases["voter@default/rewritten"]
    )
    assert dfs_gates == gates
    assert as_given_gates < gates / 10


def test_winning_as_given_order_runs_in_full(registry_cases):
    """Rewritten mem_ctrl@default: both orders need 311 #R and as-given
    needs fewer instructions, so it reaches the DFS cell count without
    being cut off, and its program is the one returned."""
    mig = registry_cases["mem_ctrl@default/rewritten"]
    gates, _, as_given_gates = translated_per_order(mig)
    assert as_given_gates == gates
    as_given = PlimCompiler(CompilerOptions(reorder="none")).compile(mig)
    assert PlimCompiler().compile(mig).to_text() == as_given.to_text()


def test_budget_no_longer_raises_for_a_cut_off_order():
    """The one contract change.  Raw voter@ci with 12 work cells: the
    as-given order runs out of cells, but only after the DFS program
    (which fits) has already beaten it, so ``reorder="best"`` returns the
    DFS program instead of raising."""
    mig = build("voter", "ci")
    budget = {"max_work_cells": 12}
    with pytest.raises(CompilationError, match="work-cell budget of 12"):
        PlimCompiler(CompilerOptions(reorder="none", **budget)).compile(mig)
    dfs = compile_dfs(mig, **budget)
    program = PlimCompiler(CompilerOptions(**budget)).compile(mig)
    assert program.to_text() == dfs.to_text()
    assert program.num_rrams <= 12
    assert verify_program(mig, program).ok


# ----------------------------------------------------------------------
# collision-free Ω.I flips
# ----------------------------------------------------------------------


def generic_flip(mig: Mig, v: int) -> None:
    """Ω.I the generic way: create, slot in, replace."""
    first_new = len(mig)
    flipped = mig.add_maj_enc(mig._ca[v] ^ 1, mig._cb[v] ^ 1, mig._cc[v] ^ 1)
    for node in range(first_new, len(mig)):
        mig.inherit_order(node, v)
    mig.replace_node(v, Signal(flipped ^ 1))


def full_state(mig: Mig) -> tuple:
    """Every structure an in-place edit maintains (parent sets as sets)."""
    return (
        list(mig._ca), list(mig._cb), list(mig._cc), bytes(mig._kind),
        dict(mig._strash), list(mig._refs),
        [None if p is None else set(p) for p in mig._parents],
        list(mig._order), list(mig._hist), mig._c0_noconst,
        dict(mig._po_of), [int(po) for po in mig._pos], mig._num_dead,
        mig._edit_count, mig._shape_version, mig._topo_dirty,
        None if mig._levels is None else list(mig._levels), list(mig._reserved),
    )


@pytest.fixture
def checked_flips(monkeypatch):
    """Run every sweep flip twice — fast on the graph, generic on a deep
    copy — and compare; counts flips by the path they take."""
    paths = {"fast": 0, "generic": 0}
    flip = rewriting.flip_complement

    def checked(work, v):
        twin = copy.deepcopy(work)
        generic_flip(twin, v)
        key = work._pack_key(work._ca[v] ^ 1, work._cb[v] ^ 1, work._cc[v] ^ 1)
        paths["generic" if key in work._strash else "fast"] += 1
        flip(work, v)
        assert full_state(work) == full_state(twin)

    monkeypatch.setattr(rewriting, "flip_complement", checked)
    return paths


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_fast_flips_equal_generic_on_registry(name, checked_flips):
    rewrite_for_plim(build(name, "ci"), RewriteOptions(po_negation_cost=2))


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_fast_flips_equal_generic_on_random_migs(seed, checked_flips):
    mig = random_case(seed)
    rewrite_for_plim(mig)
    rewrite_for_plim(mig, RewriteOptions(depth_budget=depth(mig), use_psi=True))


def test_flips_of_both_kinds_occur(checked_flips):
    for name in ("cavlc", "i2c", "router", "sin"):
        rewrite_for_plim(build(name, "ci"))
    for seed in RANDOM_SEEDS:
        rewrite_for_plim(random_case(seed))
    assert checked_flips["fast"] and checked_flips["generic"]


def test_strash_hit_flip_takes_the_generic_path():
    mig = Mig()
    a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
    g = mig.add_maj(~a, ~b, c)
    h = mig.add_maj(a, b, ~c)  # g's complemented triple
    top = mig.add_maj(g, h, a)
    mig.add_po(top, "f")
    mig.add_po(~g, "g")
    mig.enable_inplace()
    before = full_state(mig)
    assert mig.flip_enc(g.node) is False
    assert full_state(mig) == before
    twin = copy.deepcopy(mig)
    rewriting.flip_complement(mig, g.node)
    generic_flip(twin, g.node)
    assert full_state(mig) == full_state(twin)
    assert mig._ca[g.node] < 0  # merged into h


# ----------------------------------------------------------------------
# the identity cleanup copy
# ----------------------------------------------------------------------


def image(mig: Mig) -> tuple:
    return (
        list(mig._ca), list(mig._cb), list(mig._cc), bytes(mig._kind),
        [int(po) for po in mig.pos()], mig.pi_names(), mig.po_names(),
        dict(mig._strash), mig.name,
    )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_size_rewrite_outputs_are_clean(name):
    mig = build(name, "ci")
    for options in (RewriteOptions(), RewriteOptions(use_psi=True, effort=1)):
        rewritten = rewrite_for_plim(mig, options)
        assert rewritten.is_clean()
        context = AnalysisContext(rewritten)
        assert context.cleaned() is context


def three_pis() -> tuple[Mig, Signal, Signal, Signal]:
    mig = Mig()
    return (mig, *(mig.add_pi(n) for n in "abc"))


def pi_after_gate() -> Mig:
    mig, a, b, c = three_pis()
    g = mig.add_maj(a, b, c)
    d = mig.add_pi("d")
    mig.add_po(mig.add_maj(g, d, ~a), "f")
    return mig


def tombstone() -> Mig:
    mig, a, b, c = three_pis()
    mig.add_po(mig.add_maj(a, b, c), "f")
    mig.enable_inplace()
    mig.add_maj(a, b, ~c)  # read by nothing
    mig.collect_unused()
    return mig


def reservation() -> Mig:
    mig, a, b, c = three_pis()
    g = mig.add_maj(a, b, c)
    mig.add_po(g, "f")
    mig.enable_inplace()
    assert mig.find_or_reserve_enc(int(a), int(b), int(~c), g.node) < 0
    return mig


def topo_dirty() -> Mig:
    mig, a, b, c = three_pis()
    mig.add_po(mig.add_maj(a, b, c), "f")
    mig._topo_dirty = True
    return mig


def child_above_gate() -> Mig:
    """Gate 4 reads gate 5: the two gates' slots are swapped by hand."""
    mig, a, b, c = three_pis()
    low = mig.add_maj(a, b, c)
    high = mig.add_maj(low, a, ~b)
    mig.add_po(high, "f")
    for column in (mig._ca, mig._cb, mig._cc):
        column[low.node], column[high.node] = column[high.node], column[low.node]
    mig._ca[low.node] = int(high)
    mig._strash = {
        mig._pack_key(mig._ca[v], mig._cb[v], mig._cc[v]): v for v in mig.gates()
    }
    mig._pos = [low]
    return mig


def unreachable_gate() -> Mig:
    mig, a, b, c = three_pis()
    mig.add_po(mig.add_maj(a, b, c), "f")
    mig.add_maj(a, b, ~c)
    return mig


def reducible_gate() -> Mig:
    mig, a, b, c = three_pis()
    mig.add_po(mig.add_maj(a, a, b, simplify=False), "f")
    return mig


def shared_key() -> Mig:
    """Two live gates with one child set; the strash knows only the first."""
    mig, a, b, c = three_pis()
    g = mig.add_maj(a, b, c)
    h = mig.add_maj(a, b, ~c)
    mig.add_po(mig.add_maj(g, h, a), "f")
    mig._cc[h.node] = int(c)
    del mig._strash[mig._pack_key(int(a), int(b), int(~c))]
    mig._strash[hash("stale")] = h.node  # keeps one entry per gate
    return mig


@pytest.mark.parametrize(
    "make",
    [
        pi_after_gate, tombstone, reservation, topo_dirty, child_above_gate,
        unreachable_gate, reducible_gate, shared_key,
    ],
)
def test_each_broken_condition_is_not_clean(make):
    assert not make().is_clean()


def test_a_clean_hand_built_graph():
    mig, a, b, c = three_pis()
    g = mig.add_maj(a, b, ~c)
    mig.add_po(mig.add_maj(g, a, c), "f")
    mig.add_po(~g, "g")
    mig.add_po(a, "h")
    assert mig.is_clean()
    assert image(mig.cleanup()[0]) == image(mig)


@settings(max_examples=200, deadline=None)
@given(mig=migs(max_gates=30), rewrite=st.sampled_from([None, "size", "depth"]))
def test_is_clean_implies_cleanup_is_identity(mig, rewrite):
    if rewrite is not None:
        mig = rewrite_for_plim(mig, RewriteOptions(objective=rewrite))
    if mig.is_clean():
        assert image(mig.cleanup()[0]) == image(mig)
