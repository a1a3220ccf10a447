"""Property-based differential tests: worklist engine vs rebuild oracle.

Hypothesis generates arbitrary well-formed MIGs (including reducible and
complement-heavy ones); on every one of them the worklist engine must
compute the same functions as the rebuild pipeline
(``tests/rewrite_reference.py``) and never end up larger
in gates or estimated instructions.  A second property drives the mutable
core directly: replacing a gate by a freshly built equivalent must preserve
all outputs and every maintained invariant.
"""

from hypothesis import given, settings

from repro.core.cost import estimate_instructions
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig import analysis
from repro.mig.simulate import truth_tables
from rewrite_reference import rewrite_reference

from .strategies import migs

FAST = settings(max_examples=40, deadline=None)


@FAST
@given(mig=migs())
def test_worklist_matches_rebuild_functionally(mig):
    worklist = rewrite_for_plim(mig, RewriteOptions())
    rebuild = rewrite_reference(mig, RewriteOptions())
    assert truth_tables(worklist) == truth_tables(mig)
    assert truth_tables(worklist) == truth_tables(rebuild)
    assert worklist.num_gates <= rebuild.num_gates
    assert estimate_instructions(worklist) <= estimate_instructions(rebuild)


@FAST
@given(mig=migs())
def test_replace_node_preserves_outputs_and_invariants(mig):
    """Flipping every flippable gate in place is function-preserving and
    keeps the incremental refs/parents/histogram consistent."""
    before = truth_tables(mig)
    work, _ = mig.rebuild()
    work.enable_inplace()
    for v in list(work.topo_gates()):
        if not work.is_gate(v):
            continue
        a, b, c = work.children(v)
        flipped = work.add_maj(~a, ~b, ~c)
        if flipped.node != v:
            work.replace_node(v, ~flipped)
    assert truth_tables(work) == before

    # maintained structures match a from-scratch recomputation
    refs = {v: 0 for v in work.nodes()}
    for v in work.gates():
        for child in work.children(v):
            refs[child.node] += 1
    for po in work.pos():
        refs[po.node] += 1
    for v in work.nodes():
        if work.is_gate(v) or work.is_pi(v) or work.is_const(v):
            assert work.fanout_of(v) == refs[v], f"refs of node {v}"
    num_gates, hist, _ = work.inplace_signature()
    assert num_gates == work.num_gates
    assert hist == analysis.complement_stats(work).by_count

    # and the final cleanup yields a compact, equivalent graph
    clean, _ = work.rebuild()
    assert truth_tables(clean) == before
