"""Tests for the AnalysisContext cache and the batched compilation driver.

Covers the PR's acceptance criteria directly:

* ``compile_many`` with 1 worker and with 4 workers produces identical
  (#N, #I, #R) tuples in identical order for registry circuits;
* a cached :class:`AnalysisContext` returns the same parents/levels as the
  direct ``analysis.py`` functions;
* compiling one registry MIG under the five ablation option sets computes
  ``parents_of``/``levels`` at most once per distinct node order
  (call-counting via monkeypatch);
* with ≥4 CPUs, the parallel driver beats the sequential loop by ≥2×.
"""

import os
import time

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.batch import BatchResult, compile_many, parallel_map, resolve_workers
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.pipeline import compile_mig
from repro.core.resilience import TaskFailure, TaskPolicy
from repro.errors import MigError, ReproError
from repro.mig import analysis
from repro.mig.context import AnalysisContext

from conftest import random_mig
from faults import Fault, FaultPlan, install

CI_SPECS = [(name, "ci") for name in BENCHMARK_NAMES]

#: the five ablation option sets of the selection study (X2/X5), i.e. every
#: distinct compiler configuration the evaluation sweeps one MIG through
FIVE_OPTION_SETS = {
    "naive": CompilerOptions.naive(fix_output_polarity=False),
    "no-selection": CompilerOptions.no_selection(fix_output_polarity=False),
    "releasing": CompilerOptions(fix_output_polarity=False, reorder="none"),
    "paper-rules": CompilerOptions(
        fix_output_polarity=False, reorder="none", level_rule=True
    ),
    "default-best": CompilerOptions(fix_output_polarity=False),
}


class TestAnalysisContext:
    def test_matches_direct_analysis_functions(self):
        mig = build("ctrl", "ci")
        ctx = AnalysisContext(mig)
        assert ctx.parents == analysis.parents_of(mig)
        assert ctx.levels == analysis.levels(mig)
        assert ctx.use_counts == analysis.use_counts(mig)
        assert ctx.depth == analysis.depth(mig)
        assert list(ctx.gate_order) == list(mig.gates())

    def test_results_are_cached_objects(self):
        ctx = AnalysisContext(random_mig(seed=3))
        assert ctx.parents is ctx.parents
        assert ctx.levels is ctx.levels
        assert ctx.cleaned() is ctx.cleaned()
        assert ctx.reordered_dfs() is ctx.reordered_dfs()

    def test_fresh_uses_is_a_copy(self):
        ctx = AnalysisContext(random_mig(seed=4))
        uses = ctx.fresh_uses()
        uses[next(iter(uses))] = 10**6
        assert ctx.fresh_uses() == ctx.use_counts

    def test_stale_context_raises(self):
        mig = random_mig(seed=5)
        ctx = AnalysisContext(mig)
        assert ctx.levels  # prime one analysis
        mig.add_pi("late")
        with pytest.raises(MigError, match="stale"):
            _ = ctx.parents
        with pytest.raises(MigError, match="stale"):
            _ = ctx.levels  # even the already-cached analysis refuses

    def test_of_reuses_matching_context(self):
        mig = random_mig(seed=6)
        ctx = AnalysisContext(mig)
        assert AnalysisContext.of(mig, ctx) is ctx
        assert AnalysisContext.of(mig, None) is not ctx
        other = random_mig(seed=7)
        assert AnalysisContext.of(other, ctx) is not ctx

    def test_compile_with_context_matches_compile_without(self):
        mig = build("int2float", "ci")
        ctx = AnalysisContext(mig)
        for options in FIVE_OPTION_SETS.values():
            with_ctx = PlimCompiler(options).compile(mig, context=ctx)
            without = PlimCompiler(options).compile(mig)
            assert with_ctx.to_text() == without.to_text()


class TestAnalysisSharing:
    def test_analyses_once_per_node_order_across_option_sets(self, monkeypatch):
        """5 option sets on one registry MIG → parents/levels at most once
        per distinct node order (here: cleaned as-given + cleaned DFS)."""
        calls = {"parents_of": 0, "levels": 0}
        real_parents, real_levels = analysis.parents_of, analysis.levels

        def counting_parents(mig):
            calls["parents_of"] += 1
            return real_parents(mig)

        def counting_levels(mig):
            calls["levels"] += 1
            return real_levels(mig)

        monkeypatch.setattr(analysis, "parents_of", counting_parents)
        monkeypatch.setattr(analysis, "levels", counting_levels)

        mig = build("ctrl", "ci")
        ctx = AnalysisContext(mig)
        for options in FIVE_OPTION_SETS.values():
            PlimCompiler(options).compile(mig, context=ctx)

        # All five option sets clean first (one shared cleanup image); only
        # reorder="best" adds the DFS image — two distinct node orders.
        assert calls["parents_of"] <= 2
        assert calls["levels"] <= 2

    def test_best_reorder_shares_cleanup_and_reorder(self, monkeypatch):
        """reorder='best' compiles twice but cleans and DFS-reorders once."""
        cleanups = {"n": 0}
        original = AnalysisContext.cleaned

        def counting_cleaned(self):
            if self._cleaned is None:
                cleanups["n"] += 1
            return original(self)

        monkeypatch.setattr(AnalysisContext, "cleaned", counting_cleaned)
        mig = build("dec", "ci")
        ctx = AnalysisContext(mig)
        PlimCompiler(CompilerOptions()).compile(mig, context=ctx)
        PlimCompiler(CompilerOptions(level_rule=True)).compile(mig, context=ctx)
        assert cleanups["n"] == 1


def _result_key(results):
    return [(r.circuit, r.option_label, r.counts) for r in results]


class TestCompileMany:
    def test_workers_1_and_4_identical(self):
        option_sets = {
            "full": CompilerOptions(),
            "naive": CompilerOptions.naive(),
        }
        sequential = compile_many(CI_SPECS, option_sets, workers=1)
        parallel = compile_many(CI_SPECS, option_sets, workers=4)
        assert _result_key(sequential) == _result_key(parallel)
        # circuit-major, option-minor ordering
        assert [r.circuit for r in sequential[:2]] == [BENCHMARK_NAMES[0]] * 2
        assert [r.option_label for r in sequential[:2]] == ["full", "naive"]

    def test_matches_direct_compilation(self):
        results = compile_many(
            [("ctrl", "ci")], [CompilerOptions(fix_output_polarity=False)]
        )
        (result,) = results
        program = PlimCompiler(CompilerOptions(fix_output_polarity=False)).compile(
            build("ctrl", "ci")
        )
        assert result.counts[1:] == (program.num_instructions, program.num_rrams)

    def test_accepts_mig_objects_and_name_specs(self):
        mig = build("dec", "ci")
        by_mig = compile_many([mig], workers=1)
        by_spec = compile_many([("dec", "ci")], workers=1)
        # the display name differs (mig.name vs registry key); counts match
        assert [r.counts for r in by_mig] == [r.counts for r in by_spec]
        assert by_spec[0].circuit == "dec"

    def test_rejects_bad_spec(self):
        with pytest.raises(ReproError, match="circuit spec"):
            compile_many([42])

    def test_keep_programs(self):
        with_programs = compile_many([("ctrl", "ci")], keep_programs=True)
        without = compile_many([("ctrl", "ci")])
        assert with_programs[0].program is not None
        assert without[0].program is None
        assert (
            with_programs[0].program.num_instructions
            == with_programs[0].num_instructions
        )

    def test_rewrite_in_batch(self):
        (plain,) = compile_many([("int2float", "ci")])
        (rewritten,) = compile_many([("int2float", "ci")], rewrite=True)
        assert rewritten.num_instructions <= plain.num_instructions

    def test_rewrite_in_batch_ships_what_compile_mig_ships(self):
        """Each option set compiles the rewrite ``compile_mig`` would make
        for it: complemented outputs are charged when the compile fixes
        them (``ctrl@ci`` ships 83/24 either way, not 86/26)."""
        option_sets = {
            "honest": CompilerOptions(),
            "paper": CompilerOptions(fix_output_polarity=False),
            "naive": CompilerOptions.naive(),
        }
        cells = compile_many(CI_SPECS, option_sets, rewrite=True, workers=1)
        for cell in cells:
            direct = compile_mig(
                build(cell.circuit, "ci"),
                compiler_options=option_sets[cell.option_label],
            )
            assert cell.counts == (
                direct.num_gates, direct.num_instructions, direct.num_rrams,
            ), (cell.circuit, cell.option_label)

    def test_result_repr_and_counts(self):
        (result,) = compile_many([("ctrl", "ci")])
        assert isinstance(result, BatchResult)
        assert result.counts == (
            result.num_gates,
            result.num_instructions,
            result.num_rrams,
        )
        assert "ctrl" in repr(result)


class TestParallelMap:
    def test_inline_and_pooled_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=1) == [i * i for i in items]
        assert parallel_map(_square, items, workers=3) == [i * i for i in items]

    def test_single_item_runs_inline(self):
        assert parallel_map(_square, [7], workers=8) == [49]


class TestResolveWorkers:
    """Satellite 6: the Optional[int] drift is an explicit error now."""

    def test_none_means_one_per_cpu(self):
        assert resolve_workers(None) == (os.cpu_count() or 1)
        assert resolve_workers(2) == 2

    @pytest.mark.parametrize("bad", [0, -1, -100, 1.5, True, "3"])
    def test_non_positive_or_non_int_raises(self, bad):
        with pytest.raises(ReproError, match="positive integer"):
            resolve_workers(bad)

    def test_policy_validation_reaches_parallel_map(self):
        with pytest.raises(ReproError, match="timeout_s"):
            parallel_map(
                _square, [1, 2], workers=1, policy=TaskPolicy(timeout_s=-5)
            )


#: the batch driver's task function, which fault tests wrap
TASK = "repro.core.batch._compile_task"


class TestCompileManyResilience:
    """Policy plumbing through the batch driver (ISSUE 7 tentpole)."""

    def test_crashed_circuit_becomes_one_failure_slot(self, monkeypatch):
        specs = [("ctrl", "ci"), ("dec", "ci"), ("int2float", "ci")]
        clean = compile_many(specs, workers=2)
        install(monkeypatch, TASK, FaultPlan({1: Fault("exit")}))
        out = compile_many(specs, workers=2, policy=TaskPolicy(on_error="skip"))
        # one task per circuit: the dec slot fails, the others survive
        # byte-identically (circuit-major order is preserved)
        failures = [r for r in out if isinstance(r, TaskFailure)]
        assert len(failures) == 1 and failures[0].kind == "crash"
        assert failures[0].index == 1
        survivors = [r for r in out if isinstance(r, BatchResult)]
        expected = [r for r in clean if r.circuit != "dec"]
        assert _result_key(survivors) == _result_key(expected)

    def test_raise_mode_is_the_default_and_aborts(self, monkeypatch):
        from repro.core.resilience import TaskError

        install(monkeypatch, TASK, FaultPlan({0: Fault("exit")}))
        with pytest.raises(TaskError):
            compile_many([("ctrl", "ci"), ("dec", "ci")], workers=2)

    def test_retry_recovers_a_transient_crash(self, monkeypatch):
        specs = [("ctrl", "ci"), ("dec", "ci")]
        clean = compile_many(specs, workers=2)
        install(monkeypatch, TASK, FaultPlan({0: Fault("exit", attempts=(1,))}))
        out = compile_many(
            specs, workers=2, policy=TaskPolicy(retries=1, backoff=0)
        )
        assert _result_key(out) == _result_key(clean)


def _square(x):
    return x * x


@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="needs >= 4 CPUs for a meaningful speedup"
)
def test_four_workers_at_least_twice_as_fast():
    """Acceptance: the batched driver beats the sequential loop >= 2x."""
    option_sets = {
        "full": CompilerOptions(),
        "naive": CompilerOptions.naive(),
        "no-selection": CompilerOptions.no_selection(),
    }
    start = time.perf_counter()
    sequential = compile_many(CI_SPECS, option_sets, workers=1, rewrite=True)
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = compile_many(CI_SPECS, option_sets, workers=4, rewrite=True)
    parallel_s = time.perf_counter() - start

    assert _result_key(sequential) == _result_key(parallel)
    assert parallel_s * 2 <= sequential_s, (
        f"parallel {parallel_s:.2f}s vs sequential {sequential_s:.2f}s"
    )
