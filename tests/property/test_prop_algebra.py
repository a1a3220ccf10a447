"""Property-based tests of the Ω algebra passes
(``tests/rewrite_reference.py``) and MIG invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mig.graph import Mig
from repro.mig.reorder import reorder_dfs, shuffle_topological
from repro.mig.signal import Signal
from repro.mig.simulate import truth_tables
import rewrite_reference

from .strategies import migs

FAST = settings(max_examples=40, deadline=None)

PASSES = [
    rewrite_reference.pass_majority,
    rewrite_reference.pass_commutativity,
    rewrite_reference.pass_distributivity_rl,
    rewrite_reference.pass_distributivity_lr,
    rewrite_reference.pass_associativity,
    rewrite_reference.pass_push_inverters,
]


@FAST
@given(mig=migs(), pass_index=st.integers(0, len(PASSES) - 1))
def test_every_pass_preserves_all_outputs(mig, pass_index):
    assert truth_tables(PASSES[pass_index](mig)) == truth_tables(mig)


@FAST
@given(mig=migs())
def test_size_passes_never_grow(mig):
    baseline = mig.cleanup()[0].num_gates
    for pass_fn in (
        rewrite_reference.pass_majority,
        rewrite_reference.pass_commutativity,
        rewrite_reference.pass_distributivity_rl,
        rewrite_reference.pass_associativity,
    ):
        assert pass_fn(mig).num_gates <= baseline


@FAST
@given(mig=migs())
def test_push_inverters_removes_multi_complements(mig):
    result = rewrite_reference.pass_push_inverters(mig)
    for v in result.gates():
        inverted = sum(
            1 for s in result.children(v) if s.inverted and not s.is_const
        )
        assert inverted <= 1


@FAST
@given(mig=migs(), seed=st.integers(0, 2**16))
def test_reorderings_preserve_function(mig, seed):
    assert truth_tables(shuffle_topological(mig, seed)) == truth_tables(mig)
    assert truth_tables(reorder_dfs(mig)) == truth_tables(mig)


@FAST
@given(
    values=st.lists(st.integers(0, 1), min_size=3, max_size=3),
    flips=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_add_maj_agrees_with_boolean_majority(values, flips):
    """Construction-time simplification never changes the function."""
    mig = Mig()
    pis = [mig.add_pi(f"x{i}") for i in range(3)]
    children = [~pis[i] if flips[i] else pis[i] for i in range(3)]
    mig.add_po(mig.add_maj(*children), "f")
    from repro.mig.simulate import evaluate

    out = evaluate(mig, {f"x{i}": values[i] for i in range(3)})
    literals = [values[i] ^ flips[i] for i in range(3)]
    assert out["f"] == int(sum(literals) >= 2)


@FAST
@given(mig=migs())
def test_strash_no_duplicate_gate_structures(mig):
    seen = set()
    for v in mig.gates():
        key = tuple(sorted(int(s) for s in mig.children(v)))
        assert key not in seen
        seen.add(key)


@FAST
@given(mig=migs())
def test_children_always_precede_parents(mig):
    for v in mig.gates():
        for child in mig.children(v):
            assert child.node < v
