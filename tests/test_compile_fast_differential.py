"""Differential oracle: the shipped Algorithm 2 vs the object reference.

:class:`~repro.core.compiler.PlimCompiler` translates on raw child
encodings (array-backed per-node state, lazy comments, flat program
columns); :class:`compile_reference.ReferenceCompiler` is the original
Signal/dict/Operand path, kept in ``tests/`` as the oracle.  The contract
is *byte identity*: for every circuit and every option set, both must
emit the same ``.plim`` text, comment for comment.  That is why the swap did NOT bump the
cache's ``ALGORITHM_REVISION`` (PR 6 precedent: bit-identical storage
swaps keep old entries valid) — and this suite is what keeps that
decision honest.

The full 18-circuit registry sweep (both allocator policies + the naïve
baseline) lives here, on each circuit as built and as rewritten by
Algorithm 1; a hypothesis sweep over arbitrary graphs and option sets is
in ``tests/property/test_prop_compile_fast.py``.  The shipped loop serves
every option set from one code path, so every scheduling, operand,
allocation and budget axis is pinned here.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, REGISTRY
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.rewriting import rewrite_for_plim
from repro.mig.context import AnalysisContext

from compile_reference import ReferenceCompiler

#: the option sets the acceptance gate pins: default scheduling under
#: both allocator recycling policies, plus the paper's naïve baseline
GATE_CONFIGS = {
    "fifo": CompilerOptions(allocator_policy="fifo"),
    "lifo": CompilerOptions(allocator_policy="lifo"),
    "naive": CompilerOptions.naive(),
}

#: extra corners beyond the gate: no complement caching, paper-style
#: candidate selection (level rule, as given and under "best"), a
#: tight cell budget, complemented outputs left in place, the lookahead
#: rule (also under LIFO), index scheduling with case selection, and the
#: never-reuse allocator
EXTRA_CONFIGS = {
    "nocache": CompilerOptions(complement_caching=False),
    "paper": CompilerOptions(level_rule=True, reorder="none"),
    "paper_best": CompilerOptions.paper_selection(reorder="best"),
    "budget": CompilerOptions(max_work_cells=64),
    "paper_outputs": CompilerOptions(fix_output_polarity=False),
    "unblocking": CompilerOptions(unblocking_rule=True),
    "unblocking_lifo": CompilerOptions(unblocking_rule=True, allocator_policy="lifo"),
    "no_selection": CompilerOptions.no_selection(),
    "fresh": CompilerOptions(allocator_policy="fresh"),
}



@lru_cache(maxsize=None)
def ci_graph(name: str, rewritten: bool):
    """Registry circuit ``name`` at ci scale, as built or rewritten."""
    mig = REGISTRY[name].build("ci")
    return rewrite_for_plim(mig) if rewritten else mig


def with_rewritten(*axes):
    """Parameters over ``axes`` plus ``rewritten``: the as-built graph
    keeps the plain id, the Algorithm 1 output adds ``-rewritten``."""
    params = []
    for values in axes:
        label = "-".join(values)
        params.append(pytest.param(*values, False, id=label))
        params.append(pytest.param(*values, True, id=f"{label}-rewritten"))
    return params


def _both_texts(mig, options: CompilerOptions) -> tuple[str, str]:
    fast = PlimCompiler(options).compile(mig)
    oracle = ReferenceCompiler(options).compile(mig)
    return fast.to_text(), oracle.to_text()


@pytest.mark.parametrize(
    "config, name, rewritten",
    with_rewritten(*((c, n) for c in sorted(GATE_CONFIGS) for n in BENCHMARK_NAMES)),
)
def test_registry_circuit_is_byte_identical(name, config, rewritten):
    fast_text, oracle_text = _both_texts(ci_graph(name, rewritten), GATE_CONFIGS[config])
    assert fast_text == oracle_text


@pytest.mark.parametrize(
    "config, rewritten", with_rewritten(*((c,) for c in sorted(EXTRA_CONFIGS)))
)
def test_option_corners_are_byte_identical(config, rewritten):
    for name in ("adder", "voter", "cavlc", "router"):
        fast_text, oracle_text = _both_texts(
            ci_graph(name, rewritten), EXTRA_CONFIGS[config]
        )
        assert fast_text == oracle_text, name


def test_shared_context_is_engine_neutral():
    """One AnalysisContext serves both engines without cross-talk."""
    mig = REGISTRY["voter"].build("ci")
    ctx = AnalysisContext.of(mig)
    fast = PlimCompiler().compile(mig, context=ctx)
    oracle = ReferenceCompiler().compile(mig, context=ctx)
    fast_again = PlimCompiler().compile(mig, context=ctx)
    assert fast.to_text() == oracle.to_text() == fast_again.to_text()


def test_infeasible_budget_raises_identically():
    from repro.errors import CompilationError

    mig = REGISTRY["voter"].build("ci")
    errors = {}
    for compiler in (PlimCompiler, ReferenceCompiler):
        with pytest.raises(CompilationError) as excinfo:
            compiler(CompilerOptions(max_work_cells=1)).compile(mig)
        errors[compiler] = str(excinfo.value)
    assert errors[PlimCompiler] == errors[ReferenceCompiler]
