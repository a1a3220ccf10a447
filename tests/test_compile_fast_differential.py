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
baseline) lives here; a hypothesis sweep over arbitrary graphs and
option sets is in ``tests/property/test_prop_compile_fast.py``.
"""

from __future__ import annotations

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, REGISTRY
from repro.core.compiler import CompilerOptions, PlimCompiler
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
#: candidate selection (level rule, no cleanup), a tight cell budget,
#: complemented outputs left in place, the lookahead rule
EXTRA_CONFIGS = {
    "nocache": CompilerOptions(complement_caching=False),
    "paper": CompilerOptions(level_rule=True, reorder="none", clean=False),
    "budget": CompilerOptions(max_work_cells=64),
    "paper_outputs": CompilerOptions(fix_output_polarity=False),
    "unblocking": CompilerOptions(unblocking_rule=True),
}


def _both_texts(mig, options: CompilerOptions) -> tuple[str, str]:
    fast = PlimCompiler(options).compile(mig)
    oracle = ReferenceCompiler(options).compile(mig)
    return fast.to_text(), oracle.to_text()


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("config", sorted(GATE_CONFIGS))
def test_registry_circuit_is_byte_identical(name, config):
    mig = REGISTRY[name].build("ci")
    fast_text, oracle_text = _both_texts(mig, GATE_CONFIGS[config])
    assert fast_text == oracle_text


@pytest.mark.parametrize("config", sorted(EXTRA_CONFIGS))
def test_option_corners_are_byte_identical(config):
    for name in ("adder", "voter", "cavlc", "router"):
        mig = REGISTRY[name].build("ci")
        fast_text, oracle_text = _both_texts(mig, EXTRA_CONFIGS[config])
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
