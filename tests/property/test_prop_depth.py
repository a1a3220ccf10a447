"""Property-based differential tests for the depth rewriting engines.

Hypothesis generates arbitrary well-formed MIGs; on every one of them the
worklist depth engine must compute the same functions as the
``pass_associativity_depth`` rebuild oracle (``tests/rewrite_reference.py``),
reach a depth no worse than the oracle's, and never grow beyond the
cleaned input (the depth move is size-neutral beyond Ω.A).  A second
property checks the incremental level table against a from-scratch
recomputation after arbitrary local moves.
"""

from hypothesis import given, settings

from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.algebra import try_associativity_depth
from repro.mig.analysis import depth, levels
from repro.mig.simulate import output_tables
from rewrite_reference import rewrite_reference

from .strategies import migs

FAST = settings(max_examples=40, deadline=None)


@FAST
@given(mig=migs())
def test_depth_worklist_matches_oracle(mig):
    clean = mig.cleanup()[0]
    options = RewriteOptions(objective="depth")
    worklist = rewrite_for_plim(mig, options)
    oracle = rewrite_reference(mig, options)
    assert output_tables(worklist) == output_tables(mig)
    assert output_tables(worklist) == output_tables(oracle)
    assert depth(worklist) <= depth(oracle)
    assert worklist.num_gates <= clean.num_gates


@FAST
@given(mig=migs())
def test_local_depth_moves_keep_levels_exact(mig):
    """Every committed local move keeps the incremental level table equal
    to a from-scratch recomputation and never raises the global depth."""
    work, _ = mig.rebuild()
    work.enable_inplace()
    work.enable_levels()
    before_tables = output_tables(work)
    before_depth = work.current_depth()
    fanouts = work.fanout_snapshot()
    for v in list(work.topo_gates()):
        if work.is_gate(v):
            try_associativity_depth(work, v, fanouts)
    fresh = levels(work)
    for v in work.topo_gates():
        assert work.level_of(v) == fresh[v]
    assert work.current_depth() <= before_depth
    assert output_tables(work) == before_tables

