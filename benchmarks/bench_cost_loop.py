"""Cost-loop benches: the closed synthesis↔scheduling loop (PR 8).

Measures :func:`repro.core.rewriting.compile_cost_loop` throughput on
representative circuits (pytest-benchmark mode) and — run directly
(``python benchmarks/bench_cost_loop.py [--scale ci]``) — runs **every**
Table 1 registry circuit two ways:

* ``size`` — plain Algorithm 1 (the #N-optimal MIG), compiled once;
* ``plim`` — guided rewriting against the real compiled #I/#R
  (synthesize → schedule → re-synthesize to a cost fixed point).

Both are compiled under identical options, so their #I are directly
comparable.  The snapshot asserts the loop never ships a worse program
than the size rewrite and that on at least one circuit the #N-optimal
MIG is *not* #I-optimal (the loop strictly improves it) — the paper-gap
observation the compiled objective exists to close.  Results land in
``BENCH_cost_loop.json`` next to this file, so successive PRs have a
machine-readable trajectory of the compiled objective's gain over
``size``, loop iteration counts and wall time.
"""

try:
    import pytest
except ModuleNotFoundError:  # standalone snapshot mode needs no pytest
    pytest = None

from repro.circuits.registry import BENCHMARK_NAMES, benchmark_info
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.rewriting import RewriteOptions, compile_cost_loop, rewrite_for_plim

REPRESENTATIVE = ["priority", "router"]


def size_rewrite_instructions(mig, effort: int) -> int:
    """Real #I of the #N-optimal (objective="size") rewrite."""
    rewritten = rewrite_for_plim(mig, RewriteOptions(effort=effort))
    program = PlimCompiler(CompilerOptions(fix_output_polarity=False)).compile(
        rewritten
    )
    return program.num_instructions


if pytest is not None:

    @pytest.mark.parametrize("name", REPRESENTATIVE)
    def test_cost_loop_throughput(benchmark, name, scale):
        mig = benchmark_info(name).build(scale)
        result = benchmark(compile_cost_loop, mig, effort=2)
        benchmark.extra_info.update(
            {
                "scale": scale,
                "baseline_i": result.baseline["num_instructions"],
                "final_i": result.num_instructions,
                "iterations": result.iterations,
                "converged": result.converged,
            }
        )
        assert result.num_instructions <= result.baseline["num_instructions"]


# ----------------------------------------------------------------------
# standalone mode: size-vs-compiled trajectory (BENCH_cost_loop.json)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    """Run the cost loop on every registry circuit and write
    BENCH_cost_loop.json (size-vs-compiled #I, iterations, wall time)."""
    import time

    import _common

    parser = _common.snapshot_parser(main.__doc__, __file__, "BENCH_cost_loop.json")
    parser.add_argument(
        "--effort", type=int, default=4, help="guided-loop round budget (default 4)"
    )
    args = parser.parse_args(argv)

    circuits = []
    strict_improvements = 0
    wall_start = time.perf_counter()
    for name in BENCHMARK_NAMES:
        mig = benchmark_info(name).build(args.scale)
        size_i = size_rewrite_instructions(mig, args.effort)

        start = time.perf_counter()
        compiled = compile_cost_loop(mig, effort=args.effort)
        compiled_s = time.perf_counter() - start

        assert compiled.num_instructions <= compiled.baseline["num_instructions"], (
            f"{name}: loop shipped a worse program than its own baseline"
        )
        assert compiled.num_instructions <= size_i, (
            f"{name}: compiled-cost loop lost to the plain size rewrite "
            f"({compiled.num_instructions} > {size_i})"
        )
        if compiled.num_instructions < size_i:
            strict_improvements += 1

        circuits.append(
            {
                "name": name,
                "baseline_i": compiled.baseline["num_instructions"],
                "size_i": size_i,
                "plim_i": compiled.num_instructions,
                "plim_r": compiled.num_rrams,
                "plim_iterations": compiled.iterations,
                "converged": compiled.converged,
                "plim_seconds": round(compiled_s, 4),
            }
        )
        print(
            f"{name:12s} size #I {size_i:6d}  plim {compiled.num_instructions:6d}  "
            f"({compiled.iterations} round(s), {compiled_s:.2f}s)"
        )

    assert strict_improvements >= 1, (
        "no registry circuit where the compiled-cost loop beats the "
        "#N-optimal rewrite — the closed loop should find at least one"
    )
    _common.write_snapshot(
        args.output,
        "cost_loop",
        circuits,
        time.perf_counter() - wall_start,
        scale=args.scale,
        effort=args.effort,
        strict_improvements=strict_improvements,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
