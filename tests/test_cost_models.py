"""Pluggable cost models and the synthesize→schedule→re-synthesize loop.

The ISSUE 8 tentpole contracts:

* the four built-in models (:class:`NodeCount`, :class:`Depth`,
  :class:`StaticPlim`, :class:`CompiledPlim`) measure real quantities —
  #N/#D from the graph, the §4.2.2 estimate, and Algorithm 2's actual
  #I/#R/cycles/wear — and expose orderable objective keys;
* ``RewriteOptions(objective=NodeCount())`` is **bit-identical** to the
  legacy ``objective="size"`` string on every registry circuit (same
  fingerprint — the model collapses onto the dedicated engine), and
  alias/instance forms share one synthesis-cache identity;
* :func:`compile_cost_loop` never ships a program worse than its own
  baseline, stays function-preserving, respects ``max_iterations``, and
  strictly beats the one-shot #N-optimal rewrite on at least one
  registry circuit (the paper-gap observation the loop exists to close);
* :class:`CompiledPlim`'s per-fingerprint memo is a private cache — it
  never crosses pickle boundaries and never leaks into the model's
  ``repr``/equality (its cache identity).
"""

import pickle

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.cache import SynthesisCache
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.cost import (
    COST_MODELS,
    CompiledPlim,
    CostReport,
    Depth,
    NodeCount,
    StaticPlim,
    estimate_extra_rrams,
    estimate_instructions,
    resolve_cost_model,
)
from repro.core.rewriting import (
    RewriteOptions,
    compile_cost_loop,
    rewrite_for_plim,
)
from repro.errors import ReproError
from repro.mig.analysis import depth as mig_depth
from repro.mig.equivalence import equivalent
from repro.mig.graph import Mig

from conftest import random_mig


def fa_mig():
    """A small full-adder-ish MIG with mixed complement structure."""
    m = Mig()
    a, b, c = (m.add_pi(n) for n in "abc")
    carry = m.add_maj(a, b, c)
    s = m.add_maj(~carry, m.add_maj(a, b, ~c), c)
    m.add_po(carry, "cout")
    m.add_po(~s, "sum")
    return m


class TestModelMeasurements:
    def test_node_count_reports_graph_metrics(self):
        m = fa_mig()
        report = NodeCount().measure(m)
        assert report.model == "size"
        assert report["num_gates"] == m.num_gates
        assert report["depth"] == mig_depth(m)
        assert report.objective == (m.num_gates, mig_depth(m))
        assert report.wear is None

    def test_depth_orders_by_depth_first(self):
        m = fa_mig()
        report = Depth().measure(m)
        assert report.objective == (mig_depth(m), m.num_gates)

    def test_static_plim_matches_the_422_estimator(self):
        m = fa_mig()
        report = StaticPlim().measure(m)
        assert report["instructions"] == estimate_instructions(m)
        assert report["extra_rrams"] == estimate_extra_rrams(m)
        assert report.objective[0] == estimate_instructions(m)

    def test_static_plim_charges_po_negations_when_asked(self):
        m = fa_mig()  # one complemented PO
        free = StaticPlim().measure(m)
        honest = StaticPlim(po_negation_cost=2).measure(m)
        assert honest["instructions"] == free["instructions"] + 2

    def test_compiled_plim_measures_the_real_program(self):
        m = fa_mig()
        model = CompiledPlim()
        report = model.measure(m)
        program = PlimCompiler(model.compiler_options()).compile(fa_mig())
        assert report["num_instructions"] == program.num_instructions
        assert report["num_rrams"] == program.num_rrams
        assert report["cycles"] == 3 * program.num_instructions
        assert report.wear is not None
        assert report["max_writes"] == report.wear.max_writes
        assert report["total_writes"] == report.wear.total_writes
        assert report.objective[:2] == (
            program.num_instructions, program.num_rrams,
        )

    def test_compiled_plim_honest_accounting_costs_more(self):
        m = fa_mig()  # the complemented PO needs a fix-up when charged
        paper = CompiledPlim().measure(m)
        honest = CompiledPlim(paper_accounting=False).measure(m)
        assert honest["num_instructions"] > paper["num_instructions"]

    def test_compiled_plim_memoizes_per_fingerprint(self):
        m = fa_mig()
        model = CompiledPlim()
        first = model.measure(m)
        assert model.measure(m) is first  # second call is the memo hit
        assert model.measure(fa_mig()) is first  # same structure, same entry

    def test_report_mapping_interface(self):
        report = CostReport(model="x", metrics={"num_gates": 3}, objective=(3,))
        assert report["num_gates"] == 3
        assert report.get("num_gates") == 3
        assert report.get("missing", 42) == 42
        with pytest.raises(KeyError):
            report["missing"]


class TestResolution:
    @pytest.mark.parametrize("alias", sorted(COST_MODELS))
    def test_aliases_resolve(self, alias):
        model = resolve_cost_model(alias)
        assert model.name == alias
        assert type(model) is COST_MODELS[alias]

    def test_instances_pass_through(self):
        model = CompiledPlim(allocator_policy="lifo")
        assert resolve_cost_model(model) is model

    def test_unknown_alias_rejected(self):
        with pytest.raises(ReproError, match="unknown cost model"):
            resolve_cost_model("area")

    def test_balanced_is_a_strategy_not_a_model(self):
        # the removed "balanced" strategy measured nothing, so it never
        # was a cost model
        with pytest.raises(ReproError, match="unknown cost model"):
            resolve_cost_model("balanced")

    @pytest.mark.parametrize("objective", [["size"], None, 3])
    def test_non_string_alias_rejected(self, objective):
        with pytest.raises(ReproError, match="unknown cost model"):
            resolve_cost_model(objective)

    def test_unknown_rewrite_objective_rejected(self):
        with pytest.raises(ReproError, match="unknown rewrite objective"):
            rewrite_for_plim(fa_mig(), RewriteOptions(objective="fastest"))


class TestObjectiveVocabulary:
    """Every objective name is a :data:`COST_MODELS` alias, everywhere."""

    def test_accepted_names_are_the_cost_model_aliases(self):
        from repro.cli import build_parser
        from repro.serve.protocol import compile_options

        for name in COST_MODELS:
            args = build_parser().parse_args(["compile", "c.mig", "--objective", name])
            assert args.objective == name
            assert RewriteOptions(objective=name).objective == name
            assert compile_options({"options": {"objective": name}})["objective"] == name

    @pytest.mark.parametrize("objective", ["balanced", ["size"]])
    def test_unknown_objective_refused_by_every_api(self, objective):
        from repro.core.pipeline import compile_mig

        with pytest.raises(ReproError, match="unknown rewrite objective"):
            RewriteOptions(objective=objective)
        with pytest.raises(ReproError, match="unknown rewrite objective"):
            rewrite_for_plim(fa_mig(), RewriteOptions(objective=objective))
        with pytest.raises(ReproError, match="unknown rewrite objective"):
            compile_mig(fa_mig(), objective=objective)


class TestLegacyEquivalence:
    """Model objectives collapse onto the dedicated engines bit-identically
    — the ISSUE 8 no-regression acceptance bar."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_node_count_is_bit_identical_to_size(self, name):
        mig = build(name, "ci")
        legacy = rewrite_for_plim(mig, RewriteOptions(objective="size"))
        model = rewrite_for_plim(mig, RewriteOptions(objective=NodeCount()))
        assert model.fingerprint() == legacy.fingerprint(), name

    def test_depth_model_is_bit_identical_to_depth(self):
        for name in ("ctrl", "int2float", "priority"):
            mig = build(name, "ci")
            legacy = rewrite_for_plim(mig, RewriteOptions(objective="depth"))
            model = rewrite_for_plim(mig, RewriteOptions(objective=Depth()))
            assert model.fingerprint() == legacy.fingerprint(), name

    def test_size_alias_shares_cache_entries(self, tmp_path):
        """``objective=NodeCount()`` canonicalizes to the "size" string
        before the cache key is computed, so the two forms hit each
        other's entries."""
        mig = build("ctrl", "ci")
        writer = SynthesisCache(tmp_path)
        rewrite_for_plim(mig, RewriteOptions(objective="size"), cache=writer)
        assert writer.stats.stores == 1
        reader = SynthesisCache(tmp_path)
        hit = rewrite_for_plim(
            mig, RewriteOptions(objective=NodeCount()), cache=reader
        )
        assert reader.stats.hits == 1 and reader.stats.stores == 0
        assert hit.fingerprint() == rewrite_for_plim(mig).fingerprint()

    def test_plim_alias_shares_cache_identity_with_instance(self, tmp_path):
        """The "plim" alias resolves to a default :class:`CompiledPlim`
        stored back into the options, so alias and instance runs share
        every cached inner rewrite."""
        mig = build("ctrl", "ci")
        writer = SynthesisCache(tmp_path)
        rewrite_for_plim(mig, RewriteOptions(effort=2, objective="plim"), cache=writer)
        assert writer.stats.stores >= 1
        reader = SynthesisCache(tmp_path)
        rewrite_for_plim(
            mig, RewriteOptions(effort=2, objective=CompiledPlim()), cache=reader
        )
        assert reader.stats.hits >= 1 and reader.stats.stores == 0

    def test_non_default_model_params_do_not_collide(self, tmp_path):
        """A differently-parameterized model is a different cache identity
        — its guided run stores fresh inner-rewrite entries instead of
        reusing the default model's."""
        mig = build("ctrl", "ci")
        rewrite_for_plim(
            mig, RewriteOptions(effort=2, objective="plim"),
            cache=SynthesisCache(tmp_path),
        )
        probe = SynthesisCache(tmp_path)
        rewrite_for_plim(
            mig,
            RewriteOptions(effort=2, objective=CompiledPlim(allocator_policy="lifo")),
            cache=probe,
        )
        assert probe.stats.stores >= 1


class TestGuidedRewriting:
    def test_guided_never_worse_than_input(self):
        for seed in range(4):
            mig = random_mig(seed=seed, num_pis=4, num_gates=20)
            baseline = StaticPlim().measure(mig).objective
            best = rewrite_for_plim(
                mig, RewriteOptions(effort=2, objective="static-plim")
            )
            assert StaticPlim().measure(best).objective <= baseline
            assert equivalent(mig, best).equivalent

    def test_guided_preserves_function_on_registry(self):
        for name in ("ctrl", "int2float", "priority"):
            mig = build(name, "ci")
            best = rewrite_for_plim(mig, RewriteOptions(effort=2, objective="plim"))
            assert equivalent(mig, best).equivalent, name


class TestCostLoop:
    def test_loop_never_worse_than_baseline(self):
        for name in ("ctrl", "priority", "router"):
            result = compile_cost_loop(build(name, "ci"), effort=2)
            assert result.model == "plim"
            assert (
                result.final["num_instructions"]
                <= result.baseline["num_instructions"]
            ), name
            assert result.num_instructions == result.program.num_instructions

    @pytest.mark.parametrize("name", ["priority", "router"])
    def test_loop_strictly_beats_the_size_rewrite(self, name):
        """The headline acceptance bar: circuits where the #N-optimal MIG
        is *not* #I-optimal, and the closed loop strictly improves #I
        (priority 31→30, router 1013→949 at ci scale)."""
        mig = build(name, "ci")
        size_optimal = rewrite_for_plim(mig, RewriteOptions(effort=4))
        size_i = (
            PlimCompiler(CompilerOptions(fix_output_polarity=False))
            .compile(size_optimal)
            .num_instructions
        )
        result = compile_cost_loop(mig, effort=4)
        assert result.num_instructions < size_i, name
        assert equivalent(mig, result.mig).equivalent

    def test_loop_is_function_preserving(self):
        for seed in range(3):
            mig = random_mig(seed=seed, num_pis=4, num_gates=18)
            result = compile_cost_loop(mig, effort=2)
            assert equivalent(mig, result.mig).equivalent

    def test_max_iterations_bounds_the_rounds(self):
        result = compile_cost_loop(build("router", "ci"), effort=4, max_iterations=1)
        assert result.iterations == 1
        assert max(s.iteration for s in result.steps) == 1

    def test_converged_loop_ends_on_a_rejecting_round(self):
        result = compile_cost_loop(build("ctrl", "ci"), effort=2, max_iterations=8)
        assert result.converged
        assert result.iterations < 8
        last_round = [s for s in result.steps if s.iteration == result.iterations]
        assert last_round and not any(s.accepted for s in last_round)

    def test_steps_start_with_the_input_baseline(self):
        result = compile_cost_loop(build("ctrl", "ci"), effort=2)
        first = result.steps[0]
        assert (first.iteration, first.variant, first.accepted) == (0, "input", True)
        assert first.metrics == result.baseline

    def test_static_objective_reports_the_estimate(self):
        result = compile_cost_loop(build("ctrl", "ci"), objective="static-plim")
        assert result.model == "static-plim"
        assert result.final["instructions"] == estimate_instructions(result.mig)

    def test_compiler_options_override_the_final_compile(self):
        honest = compile_cost_loop(
            build("ctrl", "ci"),
            effort=2,
            compiler_options=CompilerOptions(fix_output_polarity=True),
        )
        paper = compile_cost_loop(build("ctrl", "ci"), effort=2)
        assert honest.num_instructions >= paper.num_instructions

    def test_loop_accepts_model_instances(self):
        result = compile_cost_loop(
            build("ctrl", "ci"), effort=2,
            objective=CompiledPlim(allocator_policy="lifo"),
        )
        assert result.model == "plim"
        assert result.program.num_instructions == result.num_instructions


class TestPickling:
    def test_compiled_plim_pickle_drops_the_memo(self):
        model = CompiledPlim()
        model.measure(fa_mig())
        assert model._memo
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model  # identity excludes the memo
        assert clone._memo == {}
        # the clone re-measures identically
        assert (
            clone.measure(fa_mig()).metrics == model.measure(fa_mig()).metrics
        )

    def test_memo_is_not_cache_identity(self):
        warm = CompiledPlim()
        warm.measure(fa_mig())
        cold = CompiledPlim()
        assert warm == cold
        assert repr(warm) == repr(cold)

    def test_all_models_pickle_round_trip(self):
        for model in (NodeCount(), Depth(), StaticPlim(po_negation_cost=2),
                      CompiledPlim(paper_accounting=False)):
            assert pickle.loads(pickle.dumps(model)) == model
