"""Pareto-sweep benches (A3): the (#N, #D) frontier on the Table 1 suite.

Measures :func:`repro.core.pareto.pareto_sweep` throughput on
representative circuits (pytest-benchmark mode) and — run directly
(``python benchmarks/bench_pareto.py [--scale ci]``) — sweeps **every**
Table 1 registry circuit, asserting the acceptance bar per circuit:

* every frontier point equivalence-checks against the input,
* no returned point is dominated by another,
* every depth-budgeted point respects its budget (``depth <= budget``),
* both unconstrained anchors (``objective="size"`` / ``"depth"``) were
  swept (their extremes-match cross-check lives in ``tests/test_pareto.py``).

The sweep is written to ``BENCH_pareto.json`` next to this file, so
successive PRs have a machine-readable frontier trajectory.

The standalone mode additionally measures the synthesis cache: every
circuit is swept three ways — cold (no cache), populate (the same sweep
writing a disk cache, so its time includes fingerprinting/serialization
overhead) and cached (a repeat against the populated cache).  Per circuit
it asserts that caching never changes the frontier; overall it asserts
the cached sweep is >= 3x faster than the cold sweep.  The timings land
in ``BENCH_pareto_incremental.json``.
"""

try:
    import pytest
except ModuleNotFoundError:  # standalone snapshot mode needs no pytest
    pytest = None

from repro.circuits.registry import BENCHMARK_NAMES, benchmark_info
from repro.core.cache import SynthesisCache
from repro.core.pareto import ParetoFront, pareto_sweep

REPRESENTATIVE = ["i2c", "router", "int2float"]


def check_front(front: ParetoFront) -> None:
    """The acceptance bar shared by the pytest and snapshot modes.

    (The stronger cross-check — frontier extremes vs *independently*
    recomputed ``objective="size"``/``"depth"`` rewrites — lives in
    ``tests/test_pareto.py``; repeating those rewrites here would double
    the cost of every snapshot run for a structurally guaranteed
    property, since the sweep always includes both anchors.)
    """
    assert front.points, "empty frontier"
    candidates = (*front.points, *front.dominated)
    for p in candidates:
        assert p.equivalence in ("exhaustive", "random")
        if p.budget is not None:
            assert p.depth <= p.budget, (p.label, p.depth, p.budget)
    for p in front.points:
        for q in front.points:
            assert not p.dominates(q), (p, q)
    assert {"size", "depth"} <= {p.label for p in candidates}


if pytest is not None:

    @pytest.mark.parametrize("name", REPRESENTATIVE)
    def test_pareto_sweep_throughput(benchmark, name, scale):
        mig = benchmark_info(name).build(scale)
        front = benchmark(pareto_sweep, mig, workers=1, max_points=4)
        benchmark.extra_info.update(
            {
                "scale": scale,
                "front_points": len(front.points),
                "dominated": len(front.dominated),
                "depth_span": [front.depth_point.depth, front.size_point.depth],
                "gates_span": [front.size_point.num_gates, front.depth_point.num_gates],
            }
        )
        check_front(front)


# ----------------------------------------------------------------------
# standalone mode: machine-readable frontier trajectory (BENCH_pareto.json)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    """Sweep every registry circuit and write BENCH_pareto.json plus the
    cold/populate/cached comparison BENCH_pareto_incremental.json."""
    import tempfile
    import time
    from pathlib import Path

    import _common

    parser = _common.snapshot_parser(main.__doc__, __file__, "BENCH_pareto.json")
    parser.add_argument(
        "--workers", type=int, default=1, help="process pool per sweep (default 1)"
    )
    parser.add_argument(
        "--max-points", type=int, default=8, help="intermediate budget cap per circuit"
    )
    parser.add_argument(
        "--incremental-output",
        default=str(Path(__file__).with_name("BENCH_pareto_incremental.json")),
        help="cold/populate/cached comparison snapshot "
        "(default: BENCH_pareto_incremental.json next to this file)",
    )
    parser.add_argument(
        "--min-cached-speedup",
        type=float,
        default=3.0,
        help="acceptance floor for total cold / cached wall time "
        "(default 3.0; 0 disables the assertion)",
    )
    args = parser.parse_args(argv)

    circuits = []
    incremental = []
    totals = {"cold": 0.0, "populate": 0.0, "cached": 0.0}
    wall_start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="plim-cache-") as cache_dir:
        for name in BENCHMARK_NAMES:
            sweep = dict(
                workers=args.workers, max_points=args.max_points
            )
            start = time.perf_counter()
            cold = pareto_sweep((name, args.scale), **sweep)
            cold_s = time.perf_counter() - start
            # same sweep writing the disk cache (adds fingerprint +
            # serialization overhead), then the repeat that hits it
            start = time.perf_counter()
            populated = pareto_sweep(
                (name, args.scale), cache=SynthesisCache(cache_dir), **sweep
            )
            populate_s = time.perf_counter() - start
            start = time.perf_counter()
            cached = pareto_sweep(
                (name, args.scale), cache=SynthesisCache(cache_dir), **sweep
            )
            cached_s = time.perf_counter() - start

            check_front(cold)
            strip = lambda p: {**p.to_dict(), "seconds": None}
            assert [strip(p) for p in populated.points] == [
                strip(p) for p in cold.points
            ], f"{name}: caching changed the frontier"
            assert [p.to_dict() for p in cached.points] == [
                p.to_dict() for p in populated.points
            ], f"{name}: cache hit changed the frontier"

            totals["cold"] += cold_s
            totals["populate"] += populate_s
            totals["cached"] += cached_s
            incremental.append(
                {
                    "circuit": name,
                    "cold_seconds": round(cold_s, 6),
                    "populate_seconds": round(populate_s, 6),
                    "cached_seconds": round(cached_s, 6),
                    "cached_speedup": (
                        round(cold_s / cached_s, 2) if cached_s else None
                    ),
                    "front_points": len(cold.points),
                }
            )
            row = cold.to_dict()
            row["front_points"] = len(cold.points)
            circuits.append(row)
            span = " -> ".join(
                f"(N={p.num_gates}, D={p.depth})" for p in cold.points
            )
            print(
                f"{name}: {len(cold.points)} non-dominated point(s) {span} "
                f"[cold {cold_s:.2f}s, cached {cached_s:.2f}s]"
            )
    wall = time.perf_counter() - wall_start

    cached_speedup = (
        round(totals["cold"] / totals["cached"], 2) if totals["cached"] else None
    )
    if args.min_cached_speedup and cached_speedup is not None:
        assert cached_speedup >= args.min_cached_speedup, (
            f"cached sweep is only {cached_speedup}x faster than cold "
            f"(floor: {args.min_cached_speedup}x)"
        )
    _common.write_snapshot(
        args.output,
        "pareto",
        circuits,
        wall,
        scale=args.scale,
        max_points=args.max_points,
    )
    _common.write_snapshot(
        args.incremental_output,
        "pareto_incremental",
        incremental,
        wall,
        scale=args.scale,
        max_points=args.max_points,
        total_cold_seconds=round(totals["cold"], 4),
        total_populate_seconds=round(totals["populate"], 4),
        total_cached_seconds=round(totals["cached"], 4),
        cached_speedup=cached_speedup,
    )
    print(f"cached sweep: {cached_speedup}x faster than cold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
