"""The compiled cost and the synthesize→schedule→re-synthesize loop.

* :class:`CompiledPlim` measures Algorithm 2's actual #I/#R/cycles/wear
  and exposes an orderable objective key;
* an objective is an :data:`OBJECTIVE_NAMES` name and nothing else:
  every entry point refuses anything else, agrees on what a name means,
  and keys the synthesis cache on the name;
* :func:`compile_cost_loop` never ships a program worse than its own
  baseline, stays function-preserving, respects ``max_iterations``, and
  strictly beats the one-shot #N-optimal rewrite on at least one
  registry circuit (the paper-gap observation the loop exists to close);
* a guided search compiles each distinct candidate once, and the loop
  compiles once more, for the program it ships.
"""

import pickle

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, build
import repro.core.rewriting
from repro.core.cache import SynthesisCache
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.cost import OBJECTIVE_NAMES, CompiledPlim, CostReport
from repro.core.pipeline import compile_mig, plim_rewrite_options
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
        assert report.objective == (
            program.num_instructions, program.num_rrams, m.num_gates, mig_depth(m),
        )

    def test_compiled_plim_honest_accounting_costs_more(self):
        m = fa_mig()  # the complemented PO needs a fix-up when charged
        paper = CompiledPlim().measure(m)
        honest = CompiledPlim(paper_accounting=False).measure(m)
        assert honest["num_instructions"] > paper["num_instructions"]

    def test_report_mapping_interface(self):
        report = CostReport(model="x", metrics={"num_gates": 3}, objective=(3,))
        assert report["num_gates"] == 3
        assert report.get("num_gates") == 3
        assert report.get("missing", 42) == 42
        with pytest.raises(KeyError):
            report["missing"]


class TestResolution:
    @pytest.mark.parametrize("alias", sorted(OBJECTIVE_NAMES))
    def test_aliases_resolve(self, alias):
        assert RewriteOptions(objective=alias).objective == alias

    @pytest.mark.parametrize("model", [CompiledPlim()], ids=lambda m: type(m).__name__)
    def test_instances_are_refused(self, model):
        with pytest.raises(ReproError, match="unknown rewrite objective"):
            RewriteOptions(objective=model)

    def test_unknown_alias_rejected(self):
        with pytest.raises(ReproError, match="unknown rewrite objective"):
            RewriteOptions(objective="area")

    def test_balanced_is_a_strategy_not_a_model(self):
        # the removed "balanced" strategy measured nothing, so it never
        # was an objective
        with pytest.raises(ReproError, match="unknown rewrite objective"):
            RewriteOptions(objective="balanced")

    @pytest.mark.parametrize("objective", [["size"], None, 3])
    def test_non_string_alias_rejected(self, objective):
        with pytest.raises(ReproError, match="unknown rewrite objective"):
            RewriteOptions(objective=objective)

    def test_unknown_rewrite_objective_rejected(self):
        with pytest.raises(ReproError, match="unknown rewrite objective"):
            rewrite_for_plim(fa_mig(), RewriteOptions(objective="fastest"))


class TestObjectiveVocabulary:
    """Every objective name is an :data:`OBJECTIVE_NAMES` entry, everywhere."""

    def test_accepted_names_are_the_cost_model_aliases(self):
        from repro.cli import build_parser
        from repro.serve.protocol import compile_options

        assert OBJECTIVE_NAMES == ("size", "depth", "plim")
        for name in OBJECTIVE_NAMES:
            args = build_parser().parse_args(["compile", "c.mig", "--objective", name])
            assert args.objective == name
            assert RewriteOptions(objective=name).objective == name
            assert compile_options({"options": {"objective": name}})["objective"] == name

    @pytest.mark.parametrize("objective", ["balanced", ["size"]])
    def test_unknown_objective_refused_by_every_api(self, objective):
        with pytest.raises(ReproError, match="unknown rewrite objective"):
            RewriteOptions(objective=objective)
        with pytest.raises(ReproError, match="unknown rewrite objective"):
            rewrite_for_plim(fa_mig(), RewriteOptions(objective=objective))
        with pytest.raises(ReproError, match="unknown rewrite objective"):
            compile_mig(fa_mig(), objective=objective)

    @pytest.mark.parametrize("model", [CompiledPlim()], ids=lambda m: type(m).__name__)
    def test_model_instances_refused_by_every_api(self, model):
        """A measurement instance is not an objective: each entry point
        names the accepted names instead of running it."""
        accepted = repr(OBJECTIVE_NAMES)
        calls = [
            lambda: RewriteOptions(objective=model),
            lambda: plim_rewrite_options(False, objective=model),
            lambda: compile_mig(fa_mig(), objective=model),
        ]
        for call in calls:
            with pytest.raises(ReproError, match="unknown rewrite objective") as info:
                call()
            assert accepted in str(info.value)


class TestRemovedObjective:
    """``"static-plim"`` left; every front end refuses it by name."""

    def test_rewrite_options_names_the_remaining_objectives(self):
        with pytest.raises(ReproError, match="unknown rewrite objective") as info:
            RewriteOptions(objective="static-plim")
        assert repr(("size", "depth", "plim")) in str(info.value)

    def test_plimc_compile_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        from repro.mig.io_mig import write_mig

        path = tmp_path / "fa.mig"
        write_mig(fa_mig(), path)
        with pytest.raises(SystemExit) as info:
            main(["compile", str(path), "--objective", "static-plim"])
        assert info.value.code == 2
        assert "invalid choice: 'static-plim'" in capsys.readouterr().err

    def test_serve_compile_answers_400_with_the_library_message(self):
        import asyncio
        import io
        import json

        from repro.mig.io_mig import write_mig
        from repro.serve.app import PlimServer, ServerConfig
        from repro.serve.protocol import Request, canonical_json

        text = io.StringIO()
        write_mig(fa_mig(), text)
        body = canonical_json(
            {"circuit": text.getvalue(), "format": "mig",
             "options": {"objective": "static-plim"}}
        )
        response = asyncio.run(
            PlimServer(ServerConfig()).handle(Request("POST", "/compile", body))
        )
        with pytest.raises(ReproError) as library:
            RewriteOptions(objective="static-plim")
        assert response.status == 400
        error = json.loads(response.body)["error"]
        assert error["code"] == "bad-request"
        assert error["message"] == str(library.value)


class TestLegacyEquivalence:
    """Each name means one thing on every entry point, and the name is
    the cache identity."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_node_count_is_bit_identical_to_size(self, name):
        """``"size"`` is the Algorithm 1 engine: the default options, the
        name, and ``compile_mig`` under paper accounting give one rewrite."""
        mig = build(name, "ci")
        default = rewrite_for_plim(mig)
        named = rewrite_for_plim(mig, RewriteOptions(objective="size"))
        piped = compile_mig(
            mig,
            objective="size",
            compiler_options=CompilerOptions(fix_output_polarity=False),
        ).compiled_mig
        assert named.fingerprint() == default.fingerprint(), name
        assert piped.fingerprint() == default.fingerprint(), name

    def test_depth_model_is_bit_identical_to_depth(self):
        for name in ("ctrl", "int2float", "priority"):
            mig = build(name, "ci")
            named = rewrite_for_plim(mig, RewriteOptions(objective="depth"))
            piped = compile_mig(
                mig,
                objective="depth",
                compiler_options=CompilerOptions(fix_output_polarity=False),
            ).compiled_mig
            assert piped.fingerprint() == named.fingerprint(), name

    def test_size_alias_shares_cache_entries(self, tmp_path):
        """The default options are ``objective="size"``, so the two
        spellings hit each other's entries."""
        mig = build("ctrl", "ci")
        writer = SynthesisCache(tmp_path)
        rewrite_for_plim(mig, RewriteOptions(objective="size"), cache=writer)
        assert writer.stats.stores == 1
        reader = SynthesisCache(tmp_path)
        hit = rewrite_for_plim(mig, RewriteOptions(), cache=reader)
        assert reader.stats.hits == 1 and reader.stats.stores == 0
        assert hit.fingerprint() == rewrite_for_plim(mig).fingerprint()

    def test_plim_rewrite_is_keyed_on_the_name(self, tmp_path):
        """A guided rewrite is stored under the options exactly as given
        (``objective="plim"``), and a second run is a lookup."""
        mig = build("ctrl", "ci")
        opts = RewriteOptions(effort=2, objective="plim")
        writer = SynthesisCache(tmp_path)
        shipped = rewrite_for_plim(mig, opts, cache=writer)
        assert writer.stats.stores >= 1
        assert "objective='plim'" in repr(opts)
        reader = SynthesisCache(tmp_path)
        stored = reader.get_rewrite(mig.fingerprint(), opts)
        assert stored is not None
        assert stored.fingerprint() == shipped.fingerprint()
        rewrite_for_plim(mig, opts, cache=reader)
        assert reader.stats.stores == 0

    def test_guided_objectives_do_not_collide(self, tmp_path):
        """``"plim"`` after ``"size"`` on one input stores its own result
        instead of answering with the other objective's."""
        mig = build("ctrl", "ci")
        rewrite_for_plim(
            mig, RewriteOptions(effort=2, objective="size"),
            cache=SynthesisCache(tmp_path),
        )
        probe = SynthesisCache(tmp_path)
        opts = RewriteOptions(effort=2, objective="plim")
        assert probe.get_rewrite(mig.fingerprint(), opts) is None
        rewrite_for_plim(mig, opts, cache=probe)
        assert probe.stats.stores >= 1


class TestGuidedRewriting:
    def test_guided_never_worse_than_input(self):
        for seed in range(4):
            mig = random_mig(seed=seed, num_pis=4, num_gates=20)
            baseline = CompiledPlim().measure(mig).objective
            best = rewrite_for_plim(mig, RewriteOptions(effort=2, objective="plim"))
            assert CompiledPlim().measure(best).objective <= baseline
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

    def test_loop_refuses_model_instances(self):
        """The loop always measures the compiled program: it takes no
        objective, so a model instance has nowhere to go."""
        with pytest.raises(TypeError, match="objective"):
            compile_cost_loop(
                build("ctrl", "ci"), effort=2,
                objective=CompiledPlim(allocator_policy="lifo"),
            )

    def test_final_is_the_search_winner_report(self):
        """``final`` is the search's report of the shipped graph, and the
        shipped program is the one that report measured."""
        result = compile_cost_loop(build("router", "ci"), effort=2)
        assert result.final == CompiledPlim().measure(result.mig).metrics
        assert result.final["num_instructions"] == result.num_instructions
        assert result.final["num_rrams"] == result.num_rrams


def spy_compiles(monkeypatch) -> list:
    """Record the fingerprint of every graph ``PlimCompiler.compile`` sees."""
    seen = []
    compile_ = PlimCompiler.compile

    def spy(self, mig, *args, **kwargs):
        seen.append(mig.fingerprint())
        return compile_(self, mig, *args, **kwargs)

    monkeypatch.setattr(PlimCompiler, "compile", spy)
    return seen


def spy_candidates(monkeypatch) -> list:
    """Record the fingerprint of every candidate the guided search rewrites."""
    seen = []
    rewrite = repro.core.rewriting.rewrite_for_plim

    def spy(mig, options=None, **kwargs):
        result = rewrite(mig, options, **kwargs)
        seen.append(result.fingerprint())
        return result

    monkeypatch.setattr(repro.core.rewriting, "rewrite_for_plim", spy)
    return seen


class TestMeasurementMemo:
    """The guided search is the one place measurements are memoized."""

    @pytest.mark.parametrize("name", ["int2float", "router", "priority"])
    def test_guided_search_compiles_each_fingerprint_once(self, monkeypatch, name):
        mig = build(name, "ci")
        compiles = spy_compiles(monkeypatch)
        candidates = spy_candidates(monkeypatch)
        result = compile_cost_loop(mig, effort=2)
        distinct = {mig.fingerprint(), *candidates}
        assert len(result.steps) == 1 + len(candidates) > len(distinct)
        # one compile per distinct graph measured, plus the shipped program
        assert sorted(compiles[:-1]) == sorted(distinct)
        assert compiles[-1] == result.mig.fingerprint()

    def test_guided_rewrite_compiles_each_fingerprint_once(self, monkeypatch):
        mig = build("int2float", "ci")
        compiles = spy_compiles(monkeypatch)
        candidates = spy_candidates(monkeypatch)
        rewrite_for_plim(mig, RewriteOptions(effort=2, objective="plim"))
        assert sorted(compiles) == sorted({mig.fingerprint(), *candidates})

    def test_warm_measurement_cache_leaves_one_compile(self, monkeypatch):
        mig = build("router", "ci")
        cache = SynthesisCache()
        cold = compile_cost_loop(mig, effort=2, cache=cache)
        compiles = spy_compiles(monkeypatch)
        warm = compile_cost_loop(mig, effort=2, cache=cache)
        assert compiles == [warm.mig.fingerprint()]
        assert warm.final == cold.final and warm.steps == cold.steps


class TestPickling:
    def test_memo_is_not_cache_identity(self):
        """Measuring leaves a model's identity (its fields) unchanged."""
        warm = CompiledPlim()
        warm.measure(fa_mig())
        cold = CompiledPlim()
        assert warm == cold
        assert repr(warm) == repr(cold)

    def test_all_models_pickle_round_trip(self):
        for model in (CompiledPlim(), CompiledPlim(paper_accounting=False)):
            assert pickle.loads(pickle.dumps(model)) == model
