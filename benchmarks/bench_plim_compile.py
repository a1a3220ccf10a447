"""Algorithm 2 benches: compile speedup over the reference, kernels, cost-loop.

The shipped :class:`~repro.core.compiler.PlimCompiler` translates on raw
child encodings (flat program columns, lazy comments).
``ReferenceCompiler``, the original Signal/dict path, is kept in
``tests/compile_reference.py`` as the differential oracle.  Run directly
(``python benchmarks/bench_plim_compile.py [--scale ci]``) this bench is
the acceptance gate of the shipped path:

* every registry circuit is compiled by both under both allocator
  policies, the naïve baseline, a 64-cell budget and the paper's level
  rule, and the ``.plim`` texts (or, for an infeasible budget, the error
  messages) must be **byte-identical** (the recorded justification for
  not bumping ``ALGORITHM_REVISION``: a bit-identical engine swap keeps
  cached entries valid, exactly like the PR 6 array-core swap);
* the end-to-end ``compile`` speedup over the reference (aggregate over
  the registry, best-of-``--repeats`` per compiler) must meet
  ``--min-speedup`` (default 3x) or the script **exits nonzero**;
* machine throughput is recorded for all three kernels (object
  interpreter, compiled plan, chunked-numpy where available), plus the
  ``CompiledPlim.measure`` latency and the ``compile_cost_loop``
  wall-clock — the downstream loops the shipped path exists to
  accelerate.

``--paper`` adds a ``paper`` section: schedule and translate seconds
(``PlimCompiler.last_timings``, best of ``--repeats``) of the default
compile of the 18 registry circuits at paper scale, rewritten by
Algorithm 1 first.  It takes about a minute, so it is run by hand, not
in CI.

Results land in ``BENCH_plim_compile.json`` next to this file.
"""

import random
import sys
from pathlib import Path

try:
    import pytest
except ModuleNotFoundError:  # standalone snapshot mode needs no pytest
    pytest = None

from repro.circuits.registry import BENCHMARK_NAMES, benchmark_info
from repro.core.compiler import CompilerOptions, PlimCompiler

REPRESENTATIVE = ["voter", "router"]

#: the option sets whose outputs the gate pins byte-identical
IDENTITY_CONFIGS = {
    "fifo": CompilerOptions(allocator_policy="fifo"),
    "lifo": CompilerOptions(allocator_policy="lifo"),
    "naive": CompilerOptions.naive(),
    "budget": CompilerOptions(max_work_cells=64),
    "paper_selection": CompilerOptions.paper_selection(),
}


def _reference_compiler():
    """``ReferenceCompiler``, from ``tests/compile_reference.py``."""
    tests = str(Path(__file__).resolve().parent.parent / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    from compile_reference import ReferenceCompiler

    return ReferenceCompiler


def _compile_text(mig, options: CompilerOptions, compiler=PlimCompiler) -> str:
    return compiler(options).compile(mig).to_text()


def _outcome(mig, options: CompilerOptions, compiler=PlimCompiler) -> str:
    """The ``.plim`` text, or the message of the compile error."""
    from repro.errors import CompilationError

    try:
        return _compile_text(mig, options, compiler)
    except CompilationError as error:
        return f"CompilationError: {error}"


def _best_of(repeats: int, fn) -> float:
    from time import perf_counter

    best = None
    for _ in range(repeats):
        start = perf_counter()
        fn()
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


if pytest is not None:

    @pytest.mark.parametrize("name", REPRESENTATIVE)
    def test_compile_fast_throughput(benchmark, name, scale):
        mig = benchmark_info(name).build(scale)
        program = benchmark(lambda: PlimCompiler().compile(mig))
        gates = program.num_instructions  # proxy floor; exact below
        reference = _reference_compiler()
        oracle_s = _best_of(1, lambda: reference().compile(mig))
        mean = benchmark.stats.stats.mean
        benchmark.extra_info.update(
            {
                "scale": scale,
                "num_instructions": program.num_instructions,
                "num_rrams": program.num_rrams,
                "oracle_seconds": round(oracle_s, 6),
                "speedup_vs_oracle": round(oracle_s / mean, 2),
            }
        )
        assert gates > 0

    @pytest.mark.parametrize("name", REPRESENTATIVE)
    def test_fast_is_byte_identical(benchmark, name, scale):
        mig = benchmark_info(name).build(scale)
        fast_text = benchmark(lambda: _compile_text(mig, IDENTITY_CONFIGS["fifo"]))
        assert fast_text == _compile_text(
            mig, IDENTITY_CONFIGS["fifo"], _reference_compiler()
        )


# ----------------------------------------------------------------------
# standalone mode: the acceptance gate (BENCH_plim_compile.json)
# ----------------------------------------------------------------------


def _machine_kernels(program, pi_names) -> dict:
    """M-instructions/second of every kernel on one compiled program."""
    from time import perf_counter

    from repro.plim import machine as machine_mod
    from repro.plim.machine import PlimMachine

    rng = random.Random(11)
    rates = {}
    plans = (
        ("object", 1),
        ("plan", 1),
        ("numpy", 1024),
    )
    for kernel, width in plans:
        if kernel == "numpy" and machine_mod._np is None:
            rates["numpy"] = None
            continue
        mask = (1 << width) - 1
        inputs = {n: rng.randrange(0, 1 << width) & mask for n in program.input_cells}
        runs = 0
        start = perf_counter()
        while perf_counter() - start < 0.2:
            machine = PlimMachine.for_program(program, width=width, kernel=kernel)
            machine.run_program(program, inputs)
            runs += 1
        elapsed = perf_counter() - start
        # the numpy kernel evaluates `width` lanes per instruction, so its
        # M-instr/s is not lane-comparable to the scalar kernels — record
        # the width alongside the rate
        rates[kernel] = {
            "minstr_per_s": round(program.num_instructions * runs / elapsed / 1e6, 3),
            "width": width,
        }
    return rates


def _paper_stages(repeats: int) -> dict:
    """Best-of-``repeats`` schedule and translate seconds of the default
    compile of every rewritten paper-scale registry circuit."""
    from repro.core.rewriting import rewrite_for_plim

    rows = []
    for name in BENCHMARK_NAMES:
        mig = rewrite_for_plim(benchmark_info(name).build("paper"))
        best = None
        for _ in range(repeats):
            compiler = PlimCompiler()
            compiler.compile(mig)
            timings = compiler.last_timings
            run = (timings["schedule_seconds"], timings["translate_seconds"])
            if best is None or sum(run) < sum(best):
                best = run
        rows.append(
            {
                "name": name,
                "gates": mig.num_gates,
                "schedule_seconds": round(best[0], 4),
                "translate_seconds": round(best[1], 4),
            }
        )
        print(f"paper {name:12s} schedule {best[0]:7.3f}s  translate {best[1]:7.3f}s")
    return {
        "repeats": repeats,
        "schedule_seconds": round(sum(r["schedule_seconds"] for r in rows), 3),
        "translate_seconds": round(sum(r["translate_seconds"] for r in rows), 3),
        "circuits": rows,
    }


def main(argv=None) -> int:
    """Gate the shipped compiler: 18/18 byte-identical programs and the
    aggregate speedup over the reference, in BENCH_plim_compile.json."""
    import time

    import _common

    parser = _common.snapshot_parser(
        main.__doc__, __file__, "BENCH_plim_compile.json"
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing runs per compiler per circuit; best-of wins (default 3)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="required aggregate compile speedup over the reference (default 3.0)",
    )
    parser.add_argument(
        "--paper", action="store_true",
        help="also time schedule+translate of the 18 rewritten paper-scale circuits",
    )
    args = parser.parse_args(argv)
    reference = _reference_compiler()

    wall_start = time.perf_counter()
    circuits = []
    total_fast = total_object = 0.0
    identical = 0
    for name in BENCHMARK_NAMES:
        mig = benchmark_info(name).build(args.scale)
        for config, options in IDENTITY_CONFIGS.items():
            fast_text = _outcome(mig, options)
            oracle_text = _outcome(mig, options, reference)
            assert fast_text == oracle_text, (
                f"{name}/{config}: shipped and reference programs differ — "
                f"they must stay byte-identical"
            )
        identical += 1

        fast_s = _best_of(args.repeats, lambda: PlimCompiler().compile(mig))
        object_s = _best_of(args.repeats, lambda: reference().compile(mig))
        total_fast += fast_s
        total_object += object_s
        gates = mig.cleanup()[0].num_gates
        circuits.append(
            {
                "name": name,
                "gates": gates,
                "fast_seconds": round(fast_s, 6),
                "object_seconds": round(object_s, 6),
                "speedup": round(object_s / fast_s, 2),
                "fast_us_per_gate": round(fast_s * 1e6 / max(gates, 1), 2),
            }
        )
        print(
            f"{name:12s} shipped {fast_s * 1e3:7.2f}ms  reference {object_s * 1e3:7.2f}ms  "
            f"x{object_s / fast_s:.2f}"
        )

    aggregate = total_object / total_fast

    # downstream consumers: kernels, measure latency, the cost loop
    from repro.core.cost import CompiledPlim
    from repro.core.rewriting import compile_cost_loop

    kernel_mig = benchmark_info("voter").build(args.scale)
    kernel_program = PlimCompiler().compile(kernel_mig)
    kernels = _machine_kernels(kernel_program, kernel_mig.pi_names())

    start = time.perf_counter()
    CompiledPlim().measure(kernel_mig)
    measure_latency = round(time.perf_counter() - start, 6)

    loop_mig = benchmark_info("priority").build(args.scale)
    start = time.perf_counter()
    compile_cost_loop(loop_mig, effort=2, max_iterations=2)
    cost_loop_seconds = round(time.perf_counter() - start, 4)

    report_meta = {
        "scale": args.scale,
        "repeats": args.repeats,
        "identical_circuits": identical,
        "identity_configs": sorted(IDENTITY_CONFIGS),
        "aggregate_speedup": round(aggregate, 2),
        "min_speedup": args.min_speedup,
        "machine_minstr_per_s": kernels,
        "compiled_plim_measure_seconds": measure_latency,
        "cost_loop_seconds": cost_loop_seconds,
    }
    if args.paper:
        report_meta["paper"] = _paper_stages(args.repeats)
    _common.write_snapshot(
        args.output,
        "plim_compile",
        circuits,
        time.perf_counter() - wall_start,
        **report_meta,
    )
    print(
        f"aggregate speedup x{aggregate:.2f} "
        f"({identical}/{len(BENCHMARK_NAMES)} circuits byte-identical "
        f"across {len(IDENTITY_CONFIGS)} option sets)"
    )
    if aggregate < args.min_speedup:
        print(
            f"FAIL: aggregate compile speedup x{aggregate:.2f} is below the "
            f"x{args.min_speedup} gate"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
