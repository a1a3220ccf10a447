"""Depth-budgeted size rewriting and the (#N, #D) Pareto sweep.

The tentpole contracts:

* size rewriting under ``depth_budget=d`` never produces depth > d — in
  particular, a budget equal to the input's depth must not regress depth
  at all — asserted on every registry circuit;
* infeasible budgets (below the input's depth) raise a clear
  :class:`MigError`; invalid budget/engine/objective combinations raise
  :class:`ReproError`;
* ``pareto_sweep`` returns a non-dominated (#N, #D) frontier whose
  extreme points are at least as good as the unconstrained
  ``objective="size"`` / ``objective="depth"`` results, with every point
  equivalence-checked and every budgeted point within its budget;
* sweep results are deterministic for any worker count, with and without
  a populated synthesis cache (a cache hit changes time, never output);
* every budget point is one independent cold rewrite: its (#N, #D) is
  exactly ``rewrite_for_plim`` of its seed under that budget, on every
  registry circuit.
"""

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.cache import SynthesisCache
from repro.core.pareto import (
    ParetoFront,
    ParetoPoint,
    _non_dominated,
    _subsample,
    pareto_sweep,
)
from repro.core.resilience import TaskPolicy
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.errors import MigError, ReproError
from repro.mig.analysis import depth
from repro.mig.equivalence import equivalent

from conftest import random_mig
from faults import Fault, FaultPlan, anchor_point, budget_point, install

#: the sweep's task function, which fault tests wrap
TASK = "repro.core.pareto._point_task"
#: crashes the depth anchor (the second anchor task) in its worker
DEPTH_ANCHOR_CRASH = FaultPlan({1: Fault("exit")}, only=anchor_point)


class TestDepthBudgetValidation:
    def test_negative_budget_rejected(self):
        with pytest.raises(ReproError, match="non-negative"):
            rewrite_for_plim(build("ctrl", "ci"), RewriteOptions(depth_budget=-1))

    def test_rebuild_engine_rejected(self):
        with pytest.raises(ReproError, match="unknown rewrite engine"):
            rewrite_for_plim(
                build("ctrl", "ci"),
                RewriteOptions(depth_budget=10, engine="rebuild"),
            )

    def test_depth_objective_rejected(self):
        with pytest.raises(ReproError, match="objective"):
            rewrite_for_plim(
                build("ctrl", "ci"),
                RewriteOptions(depth_budget=10, objective="depth"),
            )

    def test_infeasible_budget_raises_mig_error(self):
        mig = build("adder", "ci")
        assert depth(mig.cleanup()[0]) > 1
        with pytest.raises(MigError, match="infeasible"):
            rewrite_for_plim(mig, RewriteOptions(depth_budget=1))

    def test_infeasible_budget_raises_for_balanced(self):
        mig = build("adder", "ci")
        with pytest.raises(MigError, match="infeasible"):
            rewrite_for_plim(
                mig, RewriteOptions(depth_budget=1, objective="balanced")
            )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestDepthBudgetOnRegistry:
    def test_budget_equal_to_depth_never_regresses(self, name):
        """The tightest feasible budget: depth must not grow by a single
        level, and the result must stay equivalent and never larger than
        the cleaned input."""
        mig = build(name, "ci")
        clean = mig.cleanup()[0]
        ceiling = depth(clean)
        rewritten = rewrite_for_plim(mig, RewriteOptions(depth_budget=ceiling))
        assert depth(rewritten) <= ceiling
        assert rewritten.num_gates <= clean.num_gates
        assert equivalent(rewritten, mig)

    def test_intermediate_budgets_respected(self, name):
        """Every budget between depth-optimal and unconstrained is a hard
        ceiling on the result's depth."""
        mig = build(name, "ci")
        d_min = depth(
            rewrite_for_plim(mig, RewriteOptions(objective="depth"))
        )
        d_max = depth(rewrite_for_plim(mig))
        budgets = sorted({d_min, (d_min + d_max) // 2, max(d_min, d_max)})
        for budget in budgets:
            source = mig
            if depth(mig.cleanup()[0]) > budget:
                source = rewrite_for_plim(
                    mig, RewriteOptions(objective="depth")
                )
            rewritten = rewrite_for_plim(
                source, RewriteOptions(depth_budget=budget)
            )
            assert depth(rewritten) <= budget, (name, budget, depth(rewritten))
            assert equivalent(rewritten, mig)

    def test_loose_budget_matches_unconstrained(self, name):
        """A budget far above the reachable depth gates nothing: the
        result is exactly the unconstrained size rewrite."""
        mig = build(name, "ci")
        unconstrained = rewrite_for_plim(mig)
        loose = rewrite_for_plim(
            mig, RewriteOptions(depth_budget=depth(mig.cleanup()[0]) + 1000)
        )
        assert loose.num_gates == unconstrained.num_gates
        assert depth(loose) == depth(unconstrained)


class TestDepthBudgetBalanced:
    def test_balanced_respects_budget(self):
        for name in ("i2c", "router", "int2float"):
            mig = build(name, "ci")
            ceiling = depth(mig.cleanup()[0])
            rewritten = rewrite_for_plim(
                mig,
                RewriteOptions(depth_budget=ceiling, objective="balanced"),
            )
            assert depth(rewritten) <= ceiling
            assert equivalent(rewritten, mig)

    def test_budget_does_not_mutate_input(self):
        mig = build("i2c", "ci")
        nodes, gates, edits = len(mig), mig.num_gates, mig.edit_count
        rewrite_for_plim(
            mig, RewriteOptions(depth_budget=depth(mig.cleanup()[0]))
        )
        assert (len(mig), mig.num_gates, mig.edit_count) == (nodes, gates, edits)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_pareto_frontier_on_registry(name):
    """The acceptance bar, on every Table 1 registry circuit at ci scale:
    non-dominated frontier, extremes no worse than the single-objective
    results, every point equivalence-checked and within its budget."""
    mig = build(name, "ci")
    front = pareto_sweep((name, "ci"), workers=1)
    assert front.points
    # non-dominated, unique coordinates, ascending depth
    for p in front.points:
        for q in front.points:
            assert not p.dominates(q), (p, q)
    coords = [p.counts for p in front.points]
    assert len(set(coords)) == len(coords)
    assert [p.depth for p in front.points] == sorted(p.depth for p in front.points)
    # extremes match (or beat) the unconstrained single-objective results
    size_ref = rewrite_for_plim(mig)
    depth_ref = rewrite_for_plim(mig, RewriteOptions(objective="depth"))
    assert front.size_point.num_gates <= size_ref.num_gates
    assert front.depth_point.depth <= depth(depth_ref)
    # every candidate (frontier and dominated) was verified and budgeted
    for p in (*front.points, *front.dominated):
        assert p.equivalence in ("exhaustive", "random")
        if p.budget is not None:
            assert p.depth <= p.budget


def _strip(point):
    return {**point.to_dict(), "seconds": None}


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_budget_points_are_independent_cold_rewrites(name):
    """Every ``budget=b`` point has the (#N, #D) of one cold rewrite of its
    seed under ``b``: the depth anchor's graph when the input is deeper
    than ``b``, the raw input otherwise — nothing carries over between
    points, on every registry circuit at ci scale."""
    mig = build(name, "ci")
    front = pareto_sweep((name, "ci"), workers=1)
    depth_seed = rewrite_for_plim(mig, RewriteOptions(effort=4, objective="depth"))
    input_depth = depth(mig.cleanup()[0])
    for p in (*front.points, *front.dominated):
        if p.budget is None:
            continue
        seed = depth_seed if input_depth > p.budget else mig
        ref = rewrite_for_plim(seed, RewriteOptions(effort=4, depth_budget=p.budget))
        assert (p.num_gates, p.depth) == (ref.num_gates, depth(ref)), (name, p)


def test_int2float_front_is_pinned():
    """int2float@ci's frontier is the single point budget=16, a cold
    rewrite of the depth anchor's graph."""
    front = pareto_sweep(("int2float", "ci"), workers=1)
    assert [
        (p.num_gates, p.depth, p.num_instructions, p.num_rrams) for p in front
    ] == [(59, 16, 97, 12)]


class TestParetoSweepMechanics:
    def test_deterministic_across_worker_counts(self):
        serial = pareto_sweep(("router", "ci"), workers=1)
        pooled = pareto_sweep(("router", "ci"), workers=2)
        assert [_strip(p) for p in serial.points] == [_strip(p) for p in pooled.points]
        assert [_strip(p) for p in serial.dominated] == [
            _strip(p) for p in pooled.dominated
        ]

    def test_deterministic_with_and_without_cache(self, tmp_path):
        """A cache hit changes the sweep's wall time, never its output —
        uncached, cold-cache (populating) and warm-cache (front hit) runs
        all return identical points, for any worker count."""
        plain = pareto_sweep(("router", "ci"), workers=1)
        def sweep(workers):
            return pareto_sweep(
                ("router", "ci"), workers=workers, cache=SynthesisCache(tmp_path)
            )

        populating, hit_serial, hit_pooled = sweep(1), sweep(1), sweep(2)
        reference = [_strip(p) for p in plain.points]
        for front in (populating, hit_serial, hit_pooled):
            assert [_strip(p) for p in front.points] == reference
        # the hit runs really were front-cache lookups
        probe = SynthesisCache(tmp_path)
        pareto_sweep(("router", "ci"), workers=1, cache=probe)
        assert probe.stats.hits == 1 and probe.stats.stores == 0

    def test_pooled_cache_population_matches_serial(self, tmp_path):
        """Pool workers run the cache read-only and ship entries back; the
        merged disk store must serve the same front a serial run stores."""
        pooled_dir = tmp_path / "pooled"
        serial_dir = tmp_path / "serial"

        def sweep(workers, cache_dir):
            return pareto_sweep(
                ("router", "ci"), workers=workers, cache=SynthesisCache(cache_dir)
            )

        pooled = sweep(2, pooled_dir)
        serial = sweep(1, serial_dir)
        hit = sweep(1, pooled_dir)
        assert [_strip(p) for p in hit.points] == [_strip(p) for p in pooled.points]
        assert [_strip(p) for p in hit.points] == [_strip(p) for p in serial.points]

    def test_one_point_phase_runs_inline_on_the_live_cache(self):
        """A phase with a single task runs inline even with ``workers=2``
        and must be handed the live cache, not an empty view: the second
        sweep (``verify=False`` — a different front key) reuses the
        one-point budget phase's rewrite."""
        cache = SynthesisCache()
        pareto_sweep(("router", "ci"), workers=2, max_points=1, cache=cache)
        hits = cache.stats.hits
        pareto_sweep(
            ("router", "ci"), workers=2, max_points=1, verify=False, cache=cache
        )
        assert cache.stats.hits - hits >= 1

    def test_accepts_mig_instances(self, small_random_mig):
        front = pareto_sweep(small_random_mig, workers=1)
        assert front.points
        assert all(p.equivalence == "exhaustive" for p in front.points)

    def test_verify_false_skips_checks(self):
        front = pareto_sweep(("ctrl", "ci"), workers=1, verify=False)
        assert all(p.equivalence is None for p in front.points)

    def test_max_points_caps_budget_candidates(self):
        full = pareto_sweep(("int2float", "ci"), workers=1)
        capped = pareto_sweep(("int2float", "ci"), workers=1, max_points=1)
        assert len(capped.points) + len(capped.dominated) <= 3
        # Both sweeps contain the two unconstrained anchors, so the capped
        # frontier's extremes are never *better* than the full sweep's —
        # but they need not be equal: an intermediate budget can beat an
        # anchor (int2float's budget=16 reaches the depth anchor's depth
        # with fewer gates), and the capped sweep may not sample it.
        assert capped.size_point.num_gates >= full.size_point.num_gates
        assert capped.depth_point.depth >= full.depth_point.depth

    def test_subsample_keeps_ends(self):
        assert _subsample(list(range(10)), 3) == [0, 4, 9]
        assert _subsample(list(range(10)), None) == list(range(10))
        assert _subsample([1, 2], 5) == [1, 2]
        assert _subsample(list(range(10)), 1) == [0]
        assert _subsample(list(range(10)), 0) == []

    def test_max_points_zero_sweeps_extremes_only(self):
        front = pareto_sweep(("int2float", "ci"), workers=1, max_points=0)
        assert len(front.points) + len(front.dominated) == 2
        assert {p.label for p in (*front.points, *front.dominated)} == {
            "size", "depth",
        }

    def test_non_dominated_staircase(self):
        def pt(label, n, d):
            return ParetoPoint(
                label=label, budget=None, num_gates=n, depth=d,
                num_instructions=0, num_rrams=0, equivalence=None, seconds=0.0,
            )

        front, dominated = _non_dominated(
            [pt("a", 10, 5), pt("b", 8, 6), pt("c", 12, 4), pt("d", 8, 6),
             pt("e", 9, 7)]
        )
        assert [(p.num_gates, p.depth) for p in front] == [(12, 4), (10, 5), (8, 6)]
        assert {p.label for p in dominated} == {"d", "e"}

    def test_random_migs_frontier(self):
        for seed in range(4):
            mig = random_mig(seed=seed, num_pis=4, num_gates=15)
            front = pareto_sweep(mig, workers=1)
            for p in front.points:
                for q in front.points:
                    assert not p.dominates(q)
                assert p.equivalence == "exhaustive"


class TestPartialFrontiers:
    """ISSUE 7 acceptance: a failed budget point yields a *partial*
    frontier flagged ``incomplete`` — still staircase-valid, every
    surviving point verified — instead of aborting the sweep."""

    @staticmethod
    def _staircase_valid(front):
        pts = sorted(front.points, key=lambda p: p.depth)
        return all(
            a.depth < b.depth and a.num_gates > b.num_gates
            for a, b in zip(pts, pts[1:])
        )

    def test_chain_crash_yields_partial_staircase(self, monkeypatch):
        # int2float/ci sweeps two budgets, so the budget phase runs pooled
        # and the injected exit is a real worker death
        clean = pareto_sweep(("int2float", "ci"), workers=1)
        assert not clean.incomplete and clean.failed_budgets == ()
        first_budget = min(
            p.budget for p in (*clean.points, *clean.dominated)
            if p.budget is not None
        )
        install(
            monkeypatch, TASK, FaultPlan({0: Fault("exit")}, only=budget_point)
        )
        partial = pareto_sweep(
            ("int2float", "ci"), workers=2, policy=TaskPolicy(on_error="skip")
        )
        assert partial.incomplete
        # one lost task is exactly one lost point
        assert partial.failed_budgets == (f"budget={first_budget}",)
        assert len(partial.failures) == 1
        assert partial.failures[0].kind == "crash"
        assert partial.points  # the surviving anchors still form a front
        assert self._staircase_valid(partial)
        for p in partial.points:
            # every surviving point is still equivalence-checked
            assert p.equivalence in ("exhaustive", "random")

    def test_anchor_crash_flags_the_objective(self, monkeypatch):
        install(monkeypatch, TASK, DEPTH_ANCHOR_CRASH)
        partial = pareto_sweep(
            ("ctrl", "ci"), workers=2, policy=TaskPolicy(on_error="skip")
        )
        assert partial.incomplete and "depth" in partial.failed_budgets
        assert partial.points and self._staircase_valid(partial)

    def test_raise_mode_still_aborts(self, monkeypatch):
        from repro.core.resilience import TaskError

        install(
            monkeypatch, TASK, FaultPlan({0: Fault("exit")}, only=anchor_point)
        )
        with pytest.raises(TaskError):
            pareto_sweep(("ctrl", "ci"), workers=2)

    def test_incomplete_fronts_are_never_cached(self, tmp_path, monkeypatch):
        install(monkeypatch, TASK, DEPTH_ANCHOR_CRASH)
        cache = SynthesisCache(tmp_path / "c")
        partial = pareto_sweep(
            ("ctrl", "ci"), workers=2, cache=cache,
            policy=TaskPolicy(on_error="skip"),
        )
        assert partial.incomplete
        monkeypatch.undo()
        # a later healthy sweep through the same cache dir must recompute
        # the front (no front entry was stored), then cache the full one
        healthy_cache = SynthesisCache(tmp_path / "c")
        healthy = pareto_sweep(("ctrl", "ci"), workers=1, cache=healthy_cache)
        assert not healthy.incomplete
        clean = pareto_sweep(("ctrl", "ci"), workers=1)
        assert [(p.num_gates, p.depth) for p in healthy.points] == [
            (p.num_gates, p.depth) for p in clean.points
        ]

    def test_failure_fields_roundtrip_to_dict(self, monkeypatch):
        install(monkeypatch, TASK, DEPTH_ANCHOR_CRASH)
        partial = pareto_sweep(
            ("ctrl", "ci"), workers=2, policy=TaskPolicy(on_error="skip")
        )
        clone = ParetoFront.from_dict(partial.to_dict())
        assert clone.incomplete == partial.incomplete
        assert clone.failed_budgets == partial.failed_budgets
        assert [f.index for f in clone.failures] == [
            f.index for f in partial.failures
        ]

    def test_old_cached_fronts_still_deserialize(self):
        # pre-resilience cache entries have no incomplete/failed fields
        healthy = pareto_sweep(("ctrl", "ci"), workers=1)
        data = healthy.to_dict()
        for key in ("incomplete", "failed_budgets", "failures"):
            data.pop(key, None)
        old = ParetoFront.from_dict(data)
        assert old.incomplete is False
        assert old.failed_budgets == () and old.failures == ()


class TestAxes:
    """ISSUE 8: user-selectable frontier axes — the same depth-budgeted
    candidate generator, deduplicated on any metric pair from
    ``PARETO_AXES``, with executed axes ("cycles"/"wear") running every
    candidate on the machine model."""

    def test_too_few_axes_rejected(self):
        with pytest.raises(MigError, match="at least two"):
            pareto_sweep(("ctrl", "ci"), workers=1, axes=("depth",))

    def test_duplicate_axes_rejected(self):
        with pytest.raises(MigError, match="distinct"):
            pareto_sweep(("ctrl", "ci"), workers=1, axes=("depth", "depth"))

    def test_unknown_axis_rejected(self):
        with pytest.raises(MigError, match="unknown pareto axes"):
            pareto_sweep(("ctrl", "ci"), workers=1, axes=("depth", "area"))

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_instruction_rram_frontier_on_registry(self, name):
        """The ISSUE 8 acceptance bar: ``axes=("num_instructions",
        "num_rrams")`` returns a verified non-dominated frontier over the
        compiled-program coordinates, on every registry circuit."""
        axes = ("num_instructions", "num_rrams")
        front = pareto_sweep((name, "ci"), workers=1, axes=axes)
        assert front.axes == axes
        assert front.points
        coords = [p.coordinate(axes) for p in front.points]
        assert len(set(coords)) == len(coords)  # no duplicate coordinates
        for p in front.points:
            for q in front.points:
                assert not p.dominates(q, axes), (name, p, q)
            assert p.equivalence in ("exhaustive", "random")
            # free axes: no machine execution happened
            assert p.cycles is None and p.max_writes is None
        # nothing dominated sneaks onto the front
        for d in front.dominated:
            coord = d.coordinate(axes)
            assert coord in set(coords) or any(
                p.dominates(d, axes) for p in front.points
            ), (name, d)

    def test_deterministic_across_worker_counts(self):
        axes = ("num_instructions", "num_rrams")
        serial = pareto_sweep(("router", "ci"), workers=1, axes=axes)
        pooled = pareto_sweep(("router", "ci"), workers=2, axes=axes)
        assert [_strip(p) for p in serial.points] == [_strip(p) for p in pooled.points]
        assert [_strip(p) for p in serial.dominated] == [
            _strip(p) for p in pooled.dominated
        ]

    def test_cache_hit_never_changes_axed_output(self, tmp_path):
        axes = ("num_instructions", "num_rrams")
        plain = pareto_sweep(("ctrl", "ci"), workers=1, axes=axes)
        populating = pareto_sweep(
            ("ctrl", "ci"), workers=1, axes=axes, cache=SynthesisCache(tmp_path)
        )
        hit = pareto_sweep(
            ("ctrl", "ci"), workers=1, axes=axes, cache=SynthesisCache(tmp_path)
        )
        reference = [_strip(p) for p in plain.points]
        assert [_strip(p) for p in populating.points] == reference
        assert [_strip(p) for p in hit.points] == reference
        assert hit.axes == axes
        probe = SynthesisCache(tmp_path)
        pareto_sweep(("ctrl", "ci"), workers=1, axes=axes, cache=probe)
        assert probe.stats.hits == 1 and probe.stats.stores == 0

    def test_axes_are_part_of_the_cache_key(self, tmp_path):
        """Differently-axed fronts of the same circuit never collide in
        the cache: the second sweep is a miss-and-store, not a hit."""
        default = pareto_sweep(
            ("ctrl", "ci"), workers=1, cache=SynthesisCache(tmp_path)
        )
        probe = SynthesisCache(tmp_path)
        axed = pareto_sweep(
            ("ctrl", "ci"), workers=1, cache=probe,
            axes=("num_instructions", "num_rrams"),
        )
        assert probe.stats.stores >= 1  # the axed front was newly cached
        assert axed.axes != default.axes

    def test_executed_axes_measure_the_machine(self):
        front = pareto_sweep(("ctrl", "ci"), workers=1, axes=("depth", "wear"))
        assert front.axes == ("depth", "wear")
        assert front.points
        for p in (*front.points, *front.dominated):
            assert p.cycles is not None and p.cycles > 0
            assert p.max_writes is not None and p.max_writes >= 1
            assert p.metric("wear") == p.max_writes
            assert p.metric("cycles") == p.cycles
        for p in front.points:
            for q in front.points:
                assert not p.dominates(q, ("depth", "wear"))

    def test_default_axes_skip_execution(self):
        front = pareto_sweep(("ctrl", "ci"), workers=1)
        for p in (*front.points, *front.dominated):
            assert p.cycles is None and p.max_writes is None
            with pytest.raises(MigError, match="carries no 'wear' metric"):
                p.metric("wear")

    def test_point_round_trips_executed_metrics(self):
        point = ParetoPoint(
            label="budget=3", budget=3, num_gates=7, depth=3,
            num_instructions=19, num_rrams=4, equivalence="exhaustive",
            seconds=0.5, cycles=57, max_writes=6,
        )
        again = ParetoPoint.from_dict(point.to_dict())
        assert again == point
        assert again.metric("wear") == 6 and again.metric("cycles") == 57

    def test_front_round_trips_axes(self):
        axes = ("num_instructions", "num_rrams")
        front = pareto_sweep(("ctrl", "ci"), workers=1, axes=axes)
        again = ParetoFront.from_dict(front.to_dict())
        assert again.axes == axes
        assert [_strip(p) for p in again.points] == [_strip(p) for p in front.points]
        # pre-axes cached fronts (no "axes" key) default to (#N, #D)
        data = front.to_dict()
        del data["axes"]
        assert ParetoFront.from_dict(data).axes == ("num_gates", "depth")

    def test_non_dominated_generalizes_beyond_default_axes(self):
        def pt(label, i, r):
            return ParetoPoint(
                label=label, budget=None, num_gates=0, depth=0,
                num_instructions=i, num_rrams=r, equivalence=None, seconds=0.0,
            )

        axes = ("num_instructions", "num_rrams")
        front, dominated = _non_dominated(
            [pt("a", 100, 10), pt("b", 90, 12), pt("c", 110, 9), pt("d", 95, 13)],
            axes,
        )
        # ranked like the default staircase: ascending second axis (#R),
        # so descending first axis (#I) along the frontier
        assert [(p.num_instructions, p.num_rrams) for p in front] == [
            (110, 9), (100, 10), (90, 12),
        ]
        assert {p.label for p in dominated} == {"d"}
