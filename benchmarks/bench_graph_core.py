"""Graph-core benches: array-backed storage vs the dict reference core.

Four families of numbers, written to ``BENCH_graph_core.json``:

* **rewriting throughput** — Algorithm 1 (worklist engine, effort 4) on
  the flat struct-of-arrays :class:`~repro.mig.graph.Mig` vs the same
  graph structurally copied into the dict-of-objects ``DictMig`` kept
  in ``tests/graph_dict_reference.py``, as nodes/second and the
  array/dict ratio;
* **simulation throughput** — word-parallel batched simulation vs a
  scalar one-pattern-at-a-time loop, as patterns/second and the
  batched/scalar ratio (the PR's ``>= 3x`` acceptance gate);
* **peak RSS** — ``resource.getrusage`` high-water mark after pushing a
  mid-size EPFL circuit (``mem_ctrl`` at the default scale) through
  ingest + rewrite + batched simulation, guarded by a hard ceiling so
  memory regressions in the core fail the CI quick job, not a profiler
  session three PRs later.
* **ingest throughput** — ``read_aiger`` AIG nodes/second per circuit of
  the served hot set (the 18 registry circuits at ci and default scale,
  34 distinct), for binary and ASCII AIGER, next to the Signal-level
  reference reader kept in ``tests/aiger_reference.py``, plus
  ``Mig.fingerprint`` nodes/second — what a cache hit pays before the
  cache can answer.  Independent of ``--scale``.

Run directly (``python benchmarks/bench_graph_core.py [--scale ci]``) for
the snapshot; the pytest entries feed the same workloads through
pytest-benchmark for the quick-mode timing trend.
"""

import io
import random
import sys
from pathlib import Path

try:
    import pytest
except ModuleNotFoundError:  # standalone snapshot mode needs no pytest
    pytest = None

from repro.circuits.registry import benchmark_info
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.io_aiger import read_aiger
from repro.mig.simulate import simulate_outputs

REPRESENTATIVE = ["adder", "cavlc", "sin", "voter"]
#: the mid-size memory workload and its RSS ceiling (MB).  The circuit is
#: ~8.3k gates / 300 PIs at the default scale; the whole bench peaks well
#: under 300 MB today, so the ceiling flags anything resembling a
#: superlinear blowup without tripping on allocator noise.
RSS_WORKLOAD = ("mem_ctrl", "default")
RSS_CEILING_MB = 600
#: fewest timing runs per ingest measurement (each takes milliseconds)
INGEST_REPEATS = 7


def _tests_on_path() -> None:
    """Make the reference implementations kept in ``tests/`` importable."""
    tests = str(Path(__file__).resolve().parent.parent / "tests")
    if tests not in sys.path:
        sys.path.append(tests)


def _sim_workload(mig, num_patterns: int, seed: int = 20160605):
    rng = random.Random(seed)
    return [rng.getrandbits(num_patterns) for _ in range(mig.num_pis)]


def _ingest_snapshot(repeats: int) -> dict:
    """Per-circuit and total ingest rates over the hot set.

    Rates count AIG nodes (the header's ``M``).  The four timings of a
    circuit alternate within each repeat and keep their best, so a
    change in CPU speed hits the shipped and the reference reader alike;
    ``aig_vs_reference`` is the reference reader's time over the shipped
    one's on the same bytes.
    """
    import time

    _tests_on_path()
    from aiger_reference import hot_set, reference_read_aiger

    keys = ("aig", "aag", "reference_aig", "fingerprint")
    rows = []
    totals = dict.fromkeys(keys, 0.0)
    nodes_total = 0
    for label, (aig, aag) in hot_set().items():
        nodes = int(aig.split(None, 2)[1])
        mig = read_aiger(io.BytesIO(aig))
        calls = {
            "aig": lambda: read_aiger(io.BytesIO(aig)),
            "aag": lambda: read_aiger(io.BytesIO(aag)),
            "reference_aig": lambda: reference_read_aiger(aig),
            "fingerprint": mig.fingerprint,
        }
        seconds = dict.fromkeys(keys, float("inf"))
        for _ in range(repeats):
            for key, call in calls.items():
                start = time.perf_counter()
                call()
                seconds[key] = min(seconds[key], time.perf_counter() - start)
        row = {"circuit": label, "nodes": nodes}
        for key in keys:
            row[f"{key}_nodes_per_second"] = round(nodes / seconds[key])
            totals[key] += seconds[key]
        nodes_total += nodes
        rows.append(row)
    total = {"circuits": len(rows), "nodes": nodes_total, "repeats": repeats}
    for key in keys:
        total[f"{key}_us_per_node"] = round(1e6 * totals[key] / nodes_total, 3)
    total["aig_vs_reference"] = round(totals["reference_aig"] / totals["aig"], 2)
    return {"total": total, "circuits": rows}


def _scalar_patterns_per_second(mig, packed, num_patterns, budget_patterns=64):
    """Extrapolate the one-pattern-at-a-time rate from a bounded sample."""
    import time

    sample = min(budget_patterns, num_patterns)
    start = time.perf_counter()
    for p in range(sample):
        row = [(value >> p) & 1 for value in packed]
        simulate_outputs(mig, row, 1)
    elapsed = time.perf_counter() - start
    return sample / elapsed if elapsed else None


if pytest is not None:

    @pytest.mark.parametrize("core", ["array", "dict"])
    @pytest.mark.parametrize("name", REPRESENTATIVE)
    def test_rewrite_throughput_by_core(benchmark, name, core, scale):
        mig = benchmark_info(name).build(scale)
        if core == "dict":
            _tests_on_path()
            from graph_dict_reference import as_dict_mig

            mig = as_dict_mig(mig)
        options = RewriteOptions(effort=4)
        rewritten = benchmark(rewrite_for_plim, mig, options)
        benchmark.extra_info.update(
            {
                "scale": scale,
                "core": core,
                "gates_before": mig.num_gates,
                "gates_after": rewritten.num_gates,
                "nodes_per_second": (
                    round(mig.num_gates / benchmark.stats.stats.mean)
                    if benchmark.stats.stats.mean
                    else None
                ),
            }
        )
        assert rewritten.num_gates <= mig.num_gates

    @pytest.mark.parametrize("name", ["sin", "voter"])
    def test_batched_simulation_throughput(benchmark, name, scale):
        mig = benchmark_info(name).build(scale)
        num_patterns = 4096
        packed = _sim_workload(mig, num_patterns)
        benchmark(simulate_outputs, mig, packed, num_patterns)
        benchmark.extra_info.update(
            {
                "scale": scale,
                "num_patterns": num_patterns,
                "patterns_per_second": (
                    round(num_patterns / benchmark.stats.stats.mean)
                    if benchmark.stats.stats.mean
                    else None
                ),
            }
        )


# ----------------------------------------------------------------------
# standalone mode: machine-readable perf trajectory (BENCH_graph_core.json)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    """Time both cores and both sim modes; write BENCH_graph_core.json."""
    import resource
    import time

    import _common

    _tests_on_path()
    from graph_dict_reference import as_dict_mig

    parser = _common.snapshot_parser(main.__doc__, __file__, "BENCH_graph_core.json")
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing runs per workload (best kept)"
    )
    parser.add_argument(
        "--rss-ceiling-mb", type=int, default=RSS_CEILING_MB,
        help="fail (exit 1) if peak RSS exceeds this many MB",
    )
    parser.add_argument(
        "--num-patterns", type=int, default=4096,
        help="batch width for the simulation throughput workload",
    )
    args = parser.parse_args(argv)

    def best(fn, *fn_args):
        elapsed = None
        result = None
        for _ in range(max(1, args.repeats)):
            start = time.perf_counter()
            result = fn(*fn_args)
            took = time.perf_counter() - start
            if elapsed is None or took < elapsed:
                elapsed = took
        return elapsed, result

    wall_start = time.perf_counter()
    ingest = _ingest_snapshot(max(args.repeats, INGEST_REPEATS))
    total = ingest["total"]
    print(
        f"ingest: read_aiger {total['aig_us_per_node']} us/node (aig), "
        f"{total['aag_us_per_node']} (aag), {total['aig_vs_reference']}x the "
        f"reference reader; fingerprint {total['fingerprint_us_per_node']} us/node"
    )

    circuits = []
    options = RewriteOptions(effort=4)
    for name in REPRESENTATIVE:
        mig = benchmark_info(name).build(args.scale)
        row = {"circuit": name, "gates": mig.num_gates, "pis": mig.num_pis}

        rewrite = {}
        for core, graph in (("array", mig), ("dict", as_dict_mig(mig))):
            seconds, rewritten = best(rewrite_for_plim, graph, options)
            rewrite[core] = {
                "seconds": round(seconds, 6),
                "gates_after": rewritten.num_gates,
                "nodes_per_second": round(mig.num_gates / seconds) if seconds else None,
            }
        if rewrite["array"]["gates_after"] != rewrite["dict"]["gates_after"]:
            print(f"FAIL {name}: cores disagree on rewriting output")
            return 1
        row["rewrite"] = rewrite
        row["rewrite_array_vs_dict"] = (
            round(rewrite["dict"]["seconds"] / rewrite["array"]["seconds"], 2)
            if rewrite["array"]["seconds"] else None
        )

        packed = _sim_workload(mig, args.num_patterns)
        batched_seconds, _ = best(simulate_outputs, mig, packed, args.num_patterns)
        batched = args.num_patterns / batched_seconds if batched_seconds else None
        scalar = _scalar_patterns_per_second(mig, packed, args.num_patterns)
        row["sim"] = {
            "num_patterns": args.num_patterns,
            "batched_patterns_per_second": round(batched) if batched else None,
            "scalar_patterns_per_second": round(scalar) if scalar else None,
            "batched_vs_scalar": (
                round(batched / scalar, 1) if batched and scalar else None
            ),
        }
        circuits.append(row)
        print(
            f"{name}: rewrite array/dict {row['rewrite_array_vs_dict']}x, "
            f"sim batched/scalar {row['sim']['batched_vs_scalar']}x"
        )

    # Mid-size memory workload: ingest + rewrite + wide batch, then read
    # the process high-water mark.  ru_maxrss is KB on Linux.
    rss_name, rss_scale = RSS_WORKLOAD
    rss_mig = benchmark_info(rss_name).build(rss_scale)
    rewrite_for_plim(rss_mig.clone(), RewriteOptions(effort=1))
    simulate_outputs(rss_mig, _sim_workload(rss_mig, 65536), 65536)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = time.perf_counter() - wall_start

    _common.write_snapshot(
        args.output,
        "graph_core",
        circuits,
        wall,
        scale=args.scale,
        repeats=args.repeats,
        rss_workload={"circuit": rss_name, "scale": rss_scale,
                      "gates": rss_mig.num_gates},
        peak_rss_mb=round(peak_rss_mb, 1),
        rss_ceiling_mb=args.rss_ceiling_mb,
        ingest=ingest,
    )
    if peak_rss_mb > args.rss_ceiling_mb:
        print(
            f"FAIL peak RSS {peak_rss_mb:.0f} MB exceeds the "
            f"{args.rss_ceiling_mb} MB ceiling"
        )
        return 1
    print(f"peak RSS {peak_rss_mb:.0f} MB (ceiling {args.rss_ceiling_mb} MB)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
