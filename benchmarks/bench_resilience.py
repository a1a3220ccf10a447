"""Resilient-pool overhead and crash-recovery benches (ISSUE 7).

The batched drivers now run on :mod:`repro.core.resilience`'s supervised
per-task worker pool instead of a bare ``pool.map``.  Supervision is only
acceptable if it is (a) free when nothing goes wrong and (b) actually
recovers when something does.  This bench measures both on the registry
workload: the supervised :func:`~repro.core.batch.parallel_map` must stay
within a few percent of a plain ``ProcessPoolExecutor.map`` over the same
payloads, and a worker killed mid-run under ``on_error="skip"`` must cost
exactly one task.

Run directly (``python benchmarks/bench_resilience.py [--scale ci]
[--workers N]``) to emit ``BENCH_resilience.json`` next to this file:
min-of-repeats wall times for both engines, the overhead percentage, and
the crash-recovery leg.  Exits nonzero when the overhead exceeds
``--max-overhead-pct`` (default 5%), which is what the CI step gates on.
"""

import multiprocessing
import os

try:
    import pytest
except ModuleNotFoundError:  # standalone snapshot mode needs no pytest
    pytest = None

from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.batch import parallel_map
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.resilience import TaskFailure, TaskPolicy
from repro.core.rewriting import rewrite_for_plim


def _compile_spec(spec):
    """The registry workload task: build, rewrite and compile one circuit."""
    name, scale = spec
    mig = rewrite_for_plim(build(name, scale))
    program = PlimCompiler(CompilerOptions()).compile(mig)
    return (name, mig.num_gates, program.num_instructions, program.num_rrams)


def _compile_or_crash(payload):
    """``_compile_spec``, except that a payload flagged ``crash`` kills its
    worker process mid-task (never the driver)."""
    spec, crash = payload
    if crash and multiprocessing.parent_process() is not None:
        os._exit(13)
    return _compile_spec(spec)


def _crash_run(specs, crash_index, workers):
    """The registry workload under ``on_error="skip"`` with one worker
    killed mid-run at ``crash_index``."""
    return parallel_map(
        _compile_or_crash,
        [(spec, i == crash_index) for i, spec in enumerate(specs)],
        workers=workers,
        policy=TaskPolicy(on_error="skip"),
    )


def _pool_map(fn, items, workers):
    """The pre-resilience engine: a bare ``ProcessPoolExecutor.map``."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


_BENCH_WORKERS = 2  # works on any CPU count, exercises the pooled path


if pytest is not None:

    def test_supervised_map_matches_pool_map(scale):
        """Same payloads, same results: supervision changes nothing."""
        specs = [(name, scale) for name in BENCHMARK_NAMES[:4]]
        supervised = parallel_map(_compile_spec, specs, workers=_BENCH_WORKERS)
        baseline = _pool_map(_compile_spec, specs, _BENCH_WORKERS)
        assert supervised == baseline

    def test_crash_recovery_costs_one_task(scale):
        """A worker os._exit mid-run loses exactly its own task."""
        specs = [(name, scale) for name in BENCHMARK_NAMES[:4]]
        clean = parallel_map(_compile_spec, specs, workers=_BENCH_WORKERS)
        out = _crash_run(specs, 1, _BENCH_WORKERS)
        failures = [r for r in out if isinstance(r, TaskFailure)]
        assert [f.index for f in failures] == [1]
        assert failures[0].kind == "crash"
        survivors = [r for r in out if not isinstance(r, TaskFailure)]
        assert survivors == [clean[i] for i in range(len(specs)) if i != 1]


# ----------------------------------------------------------------------
# standalone mode: machine-readable perf trajectory (BENCH_resilience.json)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    """Time the supervised map against a bare pool.map and write
    BENCH_resilience.json (min-of-repeats walls, overhead %, recovery leg)."""
    import time

    import _common

    parser = _common.snapshot_parser(main.__doc__, __file__, "BENCH_resilience.json")
    parser.add_argument("--workers", type=int, default=_BENCH_WORKERS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--max-overhead-pct",
        type=float,
        default=5.0,
        help="fail (exit 1) when the supervised map is slower than "
        "pool.map by more than this percentage",
    )
    args = parser.parse_args(argv)

    specs = [(name, args.scale) for name in BENCHMARK_NAMES]
    start = time.perf_counter()

    # Interleave the engines so drift (thermal, cache) hits both equally;
    # min-of-repeats discards scheduling noise.
    supervised_runs, baseline_runs = [], []
    results = None
    for _ in range(max(1, args.repeats)):
        t0 = time.perf_counter()
        results = parallel_map(_compile_spec, specs, workers=args.workers)
        supervised_runs.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        baseline = _pool_map(_compile_spec, specs, args.workers)
        baseline_runs.append(time.perf_counter() - t0)
        assert results == baseline, "engines disagree on the registry workload"

    supervised_s = min(supervised_runs)
    baseline_s = min(baseline_runs)
    overhead_pct = (supervised_s - baseline_s) / baseline_s * 100.0

    # Recovery leg: kill one worker mid-run, expect exactly one lost task.
    crash_index = len(specs) // 2
    t0 = time.perf_counter()
    recovered = _crash_run(specs, crash_index, args.workers)
    recovery_s = time.perf_counter() - t0
    failures = [r for r in recovered if isinstance(r, TaskFailure)]
    survivors_match = [
        r for r in recovered if not isinstance(r, TaskFailure)
    ] == [r for i, r in enumerate(results) if i != crash_index]

    wall = time.perf_counter() - start
    _common.write_snapshot(
        args.output,
        "resilience",
        [
            {"circuit": name, "num_gates": g, "num_instructions": i, "num_rrams": r}
            for name, g, i, r in results
        ],
        wall,
        scale=args.scale,
        workers=args.workers,
        repeats=args.repeats,
        supervised_seconds=round(supervised_s, 4),
        pool_map_seconds=round(baseline_s, 4),
        overhead_pct=round(overhead_pct, 2),
        recovery={
            "seconds": round(recovery_s, 4),
            "crash_index": crash_index,
            "failed_tasks": len(failures),
            "survivors_match": survivors_match,
        },
    )
    ok = (
        overhead_pct <= args.max_overhead_pct
        and len(failures) == 1
        and survivors_match
    )
    if not ok:
        print(
            f"FAIL: overhead {overhead_pct:.2f}% "
            f"(max {args.max_overhead_pct}%), "
            f"{len(failures)} failed task(s), survivors_match={survivors_match}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
