"""PLiM machine benches (Fig. 2 / F2): execution and verification speed.

The machine model is the substrate every experiment stands on; these
benches measure single-bit execution throughput (instructions/second) and
the bit-parallel verification pass that checks hundreds of input patterns
per machine run.

Run directly (``python benchmarks/bench_machine.py [--scale ci]``) to write
``BENCH_machine.json`` next to this file.  It records:

* the ``plan`` and ``numpy`` machine kernels on the ``sin``, ``div`` and
  ``mem_ctrl`` programs at widths 2^10, 2^12, 2^14 and 2^16 (best of
  ``--repeats``, machine construction included, as verification pays it);
* per registry circuit, the one-pass ``verify_program`` and ``equivalent``
  (source MIG vs compiled MIG) against the round-by-round oracles of
  ``tests/verify_reference.py``, timed best of ``--repeats``.

The script exits nonzero when any one-pass result differs from the
oracle's or the two kernels disagree: a correctness gate, not a timing
gate.
"""

import dataclasses
import random
import sys
from pathlib import Path

try:
    import pytest
except ModuleNotFoundError:  # standalone snapshot mode needs no pytest
    pytest = None

from repro.circuits.registry import benchmark_info
from repro.core.pipeline import compile_mig
from repro.plim.machine import PlimMachine
from repro.plim.verify import verify_program

#: circuits and widths of the kernel sweep
KERNEL_CIRCUITS = ("sin", "div", "mem_ctrl")
KERNEL_WIDTHS = (1 << 10, 1 << 12, 1 << 14, 1 << 16)

if pytest is not None:

    @pytest.fixture(scope="module")
    def compiled_adder(scale):
        mig = benchmark_info("adder").build(scale)
        result = compile_mig(mig)
        return mig, result.program

    def test_machine_execution(benchmark, compiled_adder):
        mig, program = compiled_adder
        rng = random.Random(1)
        inputs = {name: rng.randint(0, 1) for name in mig.pi_names()}

        def run():
            machine = PlimMachine.for_program(program)
            return machine.run_program(program, inputs)

        benchmark(run)
        mean = benchmark.stats.stats.mean
        benchmark.extra_info.update(
            {
                "instructions": program.num_instructions,
                "instructions_per_second": round(program.num_instructions / mean)
                if mean
                else None,
            }
        )

    def test_bit_parallel_verification(benchmark, compiled_adder):
        mig, program = compiled_adder
        result = benchmark(
            verify_program,
            mig,
            program,
            num_random_rounds=1,
            patterns_per_round=256,
        )
        assert result.ok
        benchmark.extra_info["patterns_checked"] = result.patterns_checked

    def test_von_neumann_fetch_overhead(benchmark, compiled_adder):
        """Stored-program execution: fetch cycles dominate (Fig. 2 reality)."""
        from repro.plim.controller import FetchingController

        mig, program = compiled_adder
        inputs = {name: 1 for name in mig.pi_names()}

        def run():
            controller = FetchingController(program)
            controller.run(inputs)
            return controller

        controller = benchmark(run)
        ideal = 3 * len(program)
        benchmark.extra_info.update(
            {
                "code_bits": len(controller.image.bits),
                "fetch_cycles": controller.fetch_cycles,
                "execute_cycles": controller.execute_cycles,
                "fetch_overhead_factor": round(controller.total_cycles / ideal, 2),
            }
        )
        assert controller.execute_cycles == ideal


# ----------------------------------------------------------------------
# standalone mode: kernels and one-pass checks (BENCH_machine.json)
# ----------------------------------------------------------------------


def _verify_reference():
    """The round-by-round oracles, from ``tests/verify_reference.py``."""
    tests = str(Path(__file__).resolve().parent.parent / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    import verify_reference

    return verify_reference


def _best_of(repeats: int, fn):
    """``(best seconds, last result)`` of ``repeats`` calls of ``fn``."""
    from time import perf_counter

    best = None
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def kernel_sweep(program, repeats: int) -> tuple[list, bool]:
    """Plan vs numpy on ``program`` at every sweep width, and whether the
    two kernels produced the same outputs everywhere."""
    from repro.plim.machine import _np

    rows = []
    agree = True
    rng = random.Random(10)
    for width in KERNEL_WIDTHS:
        inputs = {name: rng.getrandbits(width) for name in program.input_cells}
        row = {"width": width}
        outputs = {}
        for kernel in ("plan", "numpy"):
            if kernel == "numpy" and _np is None:
                row["numpy_ms"] = None
                continue

            def run(kernel=kernel):
                machine = PlimMachine.for_program(program, width=width, kernel=kernel)
                return machine.run_program(program, inputs)

            seconds, outputs[kernel] = _best_of(repeats, run)
            row[f"{kernel}_ms"] = round(seconds * 1e3, 3)
        if row["numpy_ms"] is not None:
            agree &= outputs["plan"] == outputs["numpy"]
            row["numpy_over_plan"] = round(row["numpy_ms"] / row["plan_ms"], 2)
        rows.append(row)
    return rows, agree


def check_row(name: str, scale: str, repeats: int, reference) -> dict:
    """One-pass checks vs the oracle on one compiled registry circuit."""
    from repro.mig.equivalence import equivalent

    mig = benchmark_info(name).build(scale)
    result = compile_mig(mig)
    program, compiled = result.program, result.compiled_mig
    verify_s, packed = _best_of(repeats, lambda: verify_program(mig, program))
    verify_ref_s, oracle = _best_of(
        repeats, lambda: reference.verify_program_reference(mig, program)
    )
    equiv_s, packed_eq = _best_of(repeats, lambda: equivalent(mig, compiled))
    equiv_ref_s, oracle_eq = _best_of(
        repeats, lambda: reference.equivalent_reference(mig, compiled)
    )
    return {
        "name": name,
        "pis": mig.num_pis,
        "instructions": program.num_instructions,
        "verify": {
            "mode": packed.mode,
            "patterns_checked": packed.patterns_checked,
            "ok": packed.ok,
            "one_pass_ms": round(verify_s * 1e3, 3),
            "reference_ms": round(verify_ref_s * 1e3, 3),
            "speedup": round(verify_ref_s / verify_s, 2),
            "equal": dataclasses.asdict(packed) == dataclasses.asdict(oracle),
        },
        "equivalence": {
            "mode": packed_eq.mode,
            "equivalent": packed_eq.equivalent,
            "one_pass_ms": round(equiv_s * 1e3, 3),
            "reference_ms": round(equiv_ref_s * 1e3, 3),
            "speedup": round(equiv_ref_s / equiv_s, 2),
            "equal": dataclasses.asdict(packed_eq) == dataclasses.asdict(oracle_eq),
        },
    }


def main(argv=None) -> int:
    """Time the machine kernels and the one-pass checks against the
    round-by-round oracle; write BENCH_machine.json."""
    import time

    import _common

    from repro.circuits.registry import BENCHMARK_NAMES

    parser = _common.snapshot_parser(main.__doc__, __file__, "BENCH_machine.json")
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing runs per measurement; best-of wins (default 5)",
    )
    args = parser.parse_args(argv)
    reference = _verify_reference()

    wall_start = time.perf_counter()
    kernels = {}
    kernels_agree = True
    for name in KERNEL_CIRCUITS:
        program = compile_mig(benchmark_info(name).build(args.scale)).program
        rows, agree = kernel_sweep(program, args.repeats)
        kernels[name] = {"instructions": program.num_instructions, "widths": rows}
        kernels_agree &= agree
        for row in rows:
            print(
                f"{name:10s} width 2^{row['width'].bit_length() - 1:<3d}"
                f"plan {row['plan_ms']:8.2f}ms  numpy {row['numpy_ms']}ms"
            )

    circuits = []
    for name in BENCHMARK_NAMES:
        row = check_row(name, args.scale, args.repeats, reference)
        circuits.append(row)
        verify, equiv = row["verify"], row["equivalence"]
        print(
            f"{name:12s} verify {verify['one_pass_ms']:8.2f}ms vs "
            f"{verify['reference_ms']:8.2f}ms x{verify['speedup']:<5}  "
            f"equivalent {equiv['one_pass_ms']:8.2f}ms vs "
            f"{equiv['reference_ms']:8.2f}ms x{equiv['speedup']}"
        )
    differ = [
        f"{row['name']}/{check}"
        for row in circuits
        for check in ("verify", "equivalence")
        if not row[check]["equal"]
    ]
    verify_total = sum(row["verify"]["one_pass_ms"] for row in circuits)
    verify_ref_total = sum(row["verify"]["reference_ms"] for row in circuits)

    _common.write_snapshot(
        args.output,
        "machine",
        circuits,
        time.perf_counter() - wall_start,
        scale=args.scale,
        repeats=args.repeats,
        kernels=kernels,
        kernels_agree=kernels_agree,
        verify_one_pass_ms=round(verify_total, 3),
        verify_reference_ms=round(verify_ref_total, 3),
        verify_speedup=round(verify_ref_total / verify_total, 2),
        results_equal=not differ,
    )
    print(
        f"verify_program over the registry: {verify_total:.1f}ms one pass vs "
        f"{verify_ref_total:.1f}ms round by round (x{verify_ref_total / verify_total:.2f})"
    )
    if differ:
        print(f"FAIL: one-pass results differ from the oracle on {differ}")
        return 1
    if not kernels_agree:
        print("FAIL: the plan and numpy kernels disagree")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
