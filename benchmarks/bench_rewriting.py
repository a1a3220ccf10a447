"""Algorithm 1 benches (A1) and the rewriting-effort ablation (X1).

Measures MIG rewriting throughput on representative circuits — for both
the in-place worklist engine and the legacy rebuild pipeline kept as its
oracle in ``tests/rewrite_reference.py`` — and sweeps the ``effort`` parameter (the paper fixes it at 4), recording
how #N, #I and #R respond in ``extra_info``.

Run directly (``python benchmarks/bench_rewriting.py [--scale ci]``) to
emit ``BENCH_rewriting.json`` next to this file: gates/second for each
engine plus the per-circuit speedup, so successive PRs have a
machine-readable rewriting-perf trajectory.  The ``"rebuild"`` engine key
names the reference.
"""

import sys
from pathlib import Path

try:
    import pytest
except ModuleNotFoundError:  # standalone snapshot mode needs no pytest
    pytest = None

from repro.circuits.registry import benchmark_info
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.eval.ablations import effort_sweep

REPRESENTATIVE = ["adder", "cavlc", "sin", "voter"]


def rewrite_engines() -> dict:
    """Engine key → rewrite function: the shipped worklist engine and
    ``rewrite_reference`` from ``tests/rewrite_reference.py``."""
    tests = str(Path(__file__).resolve().parent.parent / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    from rewrite_reference import rewrite_reference

    return {"worklist": rewrite_for_plim, "rebuild": rewrite_reference}


if pytest is not None:

    @pytest.mark.parametrize("engine", ["worklist", "rebuild"])
    @pytest.mark.parametrize("name", REPRESENTATIVE)
    def test_rewrite_throughput(benchmark, name, engine, scale):
        mig = benchmark_info(name).build(scale)
        options = RewriteOptions(effort=4)
        rewritten = benchmark(rewrite_engines()[engine], mig, options)
        benchmark.extra_info.update(
            {
                "scale": scale,
                "engine": engine,
                "gates_before": mig.num_gates,
                "gates_after": rewritten.num_gates,
                "gates_per_second": (
                    round(mig.num_gates / benchmark.stats.stats.mean)
                    if benchmark.stats.stats.mean
                    else None
                ),
            }
        )
        assert rewritten.num_gates <= mig.num_gates

    @pytest.mark.parametrize("name", ["cavlc", "int2float"])
    def test_effort_sweep(benchmark, name, scale):
        """X1: cost vs effort — most of the win lands by effort 1-2."""
        mig = benchmark_info(name).build(scale)
        points = benchmark(effort_sweep, mig, (0, 1, 2, 4, 8))
        benchmark.extra_info["sweep"] = {
            p.effort: {"N": p.num_gates, "I": p.instructions, "R": p.rrams}
            for p in points
        }
        by_effort = {p.effort: p for p in points}
        # Rewriting may trade a couple of instructions for cells (it optimizes
        # the combined cost); neither metric may regress materially.
        base = by_effort[0]
        for effort in (4, 8):
            point = by_effort[effort]
            slack = max(2, base.instructions // 50)
            assert point.instructions <= base.instructions + slack
            assert point.rrams <= base.rrams + max(2, base.rrams // 10)
            assert (point.instructions < base.instructions) or (
                point.rrams <= base.rrams
            )


# ----------------------------------------------------------------------
# standalone mode: machine-readable perf trajectory (BENCH_rewriting.json)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    """Time both engines per circuit and write BENCH_rewriting.json."""
    import time

    import _common

    parser = _common.snapshot_parser(main.__doc__, __file__, "BENCH_rewriting.json")
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing runs per engine (best is kept)"
    )
    args = parser.parse_args(argv)

    def best_time(rewrite, mig, options):
        best = None
        for _ in range(max(1, args.repeats)):
            start = time.perf_counter()
            result = rewrite(mig, options)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best[0]:
                best = (elapsed, result)
        return best

    circuits = []
    wall_start = time.perf_counter()
    for name in REPRESENTATIVE:
        mig = benchmark_info(name).build(args.scale)
        row = {"circuit": name, "gates_before": mig.num_gates, "engines": {}}
        for engine, rewrite in rewrite_engines().items():
            seconds, rewritten = best_time(rewrite, mig, RewriteOptions(effort=4))
            row["engines"][engine] = {
                "seconds": round(seconds, 6),
                "gates_after": rewritten.num_gates,
                "gates_per_second": round(mig.num_gates / seconds) if seconds else None,
            }
        worklist = row["engines"]["worklist"]["seconds"]
        rebuild = row["engines"]["rebuild"]["seconds"]
        row["speedup"] = round(rebuild / worklist, 2) if worklist else None
        circuits.append(row)
        print(
            f"{name}: worklist {worklist:.4f}s, rebuild {rebuild:.4f}s "
            f"({row['speedup']}x)"
        )
    wall = time.perf_counter() - wall_start

    _common.write_snapshot(
        args.output,
        "rewriting",
        circuits,
        wall,
        scale=args.scale,
        repeats=args.repeats,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
