"""Depth-rewriting benches (A2): worklist depth engine vs the rebuild oracle.

Measures ``objective="depth"`` rewriting throughput on representative
circuits for both engines — the in-place worklist engine with incremental
level maintenance and the legacy ``pass_associativity_depth`` rebuild
pipeline kept as the differential oracle in ``tests/rewrite_reference.py``
(the ``"rebuild"`` engine key).

Run directly (``python benchmarks/bench_depth.py [--scale ci]``) to emit
``BENCH_depth.json`` next to this file: per-circuit depth before/after and
seconds per engine plus the worklist speedup, so successive PRs have a
machine-readable depth-rewriting trajectory.  The acceptance bar — the
worklist engine reaches a depth no worse than the oracle's at >= 2x its
wall-clock at default scale — is what this snapshot records.
"""

try:
    import pytest
except ModuleNotFoundError:  # standalone snapshot mode needs no pytest
    pytest = None

from bench_rewriting import rewrite_engines
from repro.circuits.registry import benchmark_info
from repro.core.rewriting import RewriteOptions
from repro.mig.analysis import depth

REPRESENTATIVE = ["adder", "sin", "router", "voter", "mem_ctrl"]

if pytest is not None:

    @pytest.mark.parametrize("engine", ["worklist", "rebuild"])
    @pytest.mark.parametrize("name", REPRESENTATIVE)
    def test_depth_rewrite_throughput(benchmark, name, engine, scale):
        mig = benchmark_info(name).build(scale)
        options = RewriteOptions(effort=4, objective="depth")
        rewritten = benchmark(rewrite_engines()[engine], mig, options)
        benchmark.extra_info.update(
            {
                "scale": scale,
                "engine": engine,
                "depth_before": depth(mig.cleanup()[0]),
                "depth_after": depth(rewritten),
                "gates_after": rewritten.num_gates,
            }
        )
        assert depth(rewritten) <= depth(mig.cleanup()[0])


# ----------------------------------------------------------------------
# standalone mode: machine-readable perf trajectory (BENCH_depth.json)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    """Time both depth engines per circuit and write BENCH_depth.json."""
    import time

    import _common

    parser = _common.snapshot_parser(main.__doc__, __file__, "BENCH_depth.json")
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
        clean = mig.cleanup()[0]
        row = {
            "circuit": name,
            "gates_before": clean.num_gates,
            "depth_before": depth(clean),
            "engines": {},
        }
        for engine, rewrite in rewrite_engines().items():
            seconds, rewritten = best_time(
                rewrite, mig, RewriteOptions(effort=4, objective="depth")
            )
            row["engines"][engine] = {
                "seconds": round(seconds, 6),
                "depth_after": depth(rewritten),
                "gates_after": rewritten.num_gates,
            }
        worklist = row["engines"]["worklist"]
        rebuild = row["engines"]["rebuild"]
        row["speedup"] = (
            round(rebuild["seconds"] / worklist["seconds"], 2)
            if worklist["seconds"]
            else None
        )
        circuits.append(row)
        print(
            f"{name}: depth {row['depth_before']} -> "
            f"wl {worklist['depth_after']} / rb {rebuild['depth_after']}, "
            f"worklist {worklist['seconds']:.4f}s, rebuild "
            f"{rebuild['seconds']:.4f}s ({row['speedup']}x)"
        )
    wall = time.perf_counter() - wall_start

    _common.write_snapshot(
        args.output,
        "depth",
        circuits,
        wall,
        scale=args.scale,
        repeats=args.repeats,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
