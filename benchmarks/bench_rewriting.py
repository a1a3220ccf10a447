"""Algorithm 1 benches (A1) and the rewriting-effort ablation (X1).

Measures MIG rewriting throughput on representative circuits — for both
the in-place worklist engine and the legacy rebuild pipeline kept as its
oracle in ``tests/rewrite_reference.py`` — and sweeps the ``effort`` parameter (the paper fixes it at 4), recording
how #N, #I and #R respond in ``extra_info``.

Run directly (``python benchmarks/bench_rewriting.py [--scale ci]``) to
emit ``BENCH_rewriting.json`` next to this file: gates/second for each
engine plus the per-circuit speedup, so successive PRs have a
machine-readable rewriting-perf trajectory.  The ``"rebuild"`` engine key
names the reference.  The representative circuits run at ``--scale``;
the three perfbench ``pipeline`` circuits (``<name>@pipeline``) run at
their own scale, read back from binary AIGER, so they carry the
workload's unreachable cones; they are timed once per engine (the
reference takes seconds on them), the others best of ``--repeats``.
Standalone mode exits 1 when the worklist engine leaves more gates than
the reference on any circuit.

The snapshot's ``counts`` section attributes the size phases' work, per
registry circuit at ci scale and per circuit of the perfbench
``pipeline`` workload: gates each Ω.D and Ω.A phase visits, visits that
pass the inline test (the rule is called — for Ω.D the rule's whole
test, for Ω.A and Ψ.A their shared early reject), firings, and the
speculative Ω.A gates reserved and later materialized.  A skipped phase
visits nothing.  The counts come from wrapping the engine's functions
here, for one run each; they repeat exactly from run to run.
"""

import io
import sys
from contextlib import contextmanager
from pathlib import Path

try:
    import pytest
except ModuleNotFoundError:  # standalone snapshot mode needs no pytest
    pytest = None

import repro.core.rewriting as rewriting
from repro.circuits.registry import BENCHMARK_NAMES, benchmark_info, build
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.eval.ablations import effort_sweep
from repro.mig.graph import Mig
from repro.mig.io_aiger import read_aiger, write_aiger

REPRESENTATIVE = ["adder", "cavlc", "sin", "voter"]
#: the perfbench ``pipeline`` circuits (default scale, read back from
#: binary AIGER as the benchmark does) and its rewrite options, which are
#: ``compile_mig``'s: effort 4, complemented outputs charged 2
PIPELINE = {"mem_ctrl": {"num_outputs": 80}, "voter": {}, "sin": {}}
COUNT_OPTIONS = RewriteOptions(effort=4, po_negation_cost=2)


@contextmanager
def _wrapped(owner, name, make):
    """Replace ``owner.name`` by ``make(original)`` for the block."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def rule_counts(mig, options=COUNT_OPTIONS) -> dict:
    """One rewrite of ``mig`` with the size phases' work counted."""
    counts = {
        rule: {"visits": 0, "past_reject": 0, "fired": 0}
        for rule in ("omega_d", "omega_a", "psi_a")
    }
    speculative = {"reserved": 0, "materialized": 0}

    def phase(rule):
        def make(original):
            def run(work, *args):
                counts[rule]["visits"] += work.num_gates  # the phase's visit list
                return original(work, *args)
            return run
        return make

    def tried(rule):
        def make(original):
            def run(work, v, *args):
                counts[rule]["past_reject"] += 1
                fired = original(work, v, *args)
                counts[rule]["fired"] += fired
                return fired
            return run
        return make

    def reserve(original):
        def run(self, *args):
            encoding = original(self, *args)
            speculative["reserved"] += encoding < 0
            return encoding
        return run

    def materialize(original):
        def run(self):
            speculative["materialized"] += len(self._reserved)
            return original(self)
        return run

    with _wrapped(rewriting, "_distributivity_phase", phase("omega_d")), \
            _wrapped(rewriting, "_reshaping_phase", phase("omega_a")), \
            _wrapped(rewriting, "try_distributivity_rl", tried("omega_d")), \
            _wrapped(rewriting, "try_associativity", tried("omega_a")), \
            _wrapped(rewriting, "try_complementary_associativity", tried("psi_a")), \
            _wrapped(Mig, "find_or_reserve_enc", reserve), \
            _wrapped(Mig, "materialize_reserved", materialize):
        rewritten = rewrite_for_plim(mig, options)
    if not options.use_psi:
        del counts["psi_a"]
    return {
        "gates_before": mig.num_gates,
        "gates_after": rewritten.num_gates,
        **counts,
        "speculative": speculative,
    }


def pipeline_inputs() -> dict:
    """``<name>@pipeline`` → the perfbench ``pipeline`` input, built at
    default scale and read back from binary AIGER."""
    inputs = {}
    for name, overrides in PIPELINE.items():
        buffer = io.BytesIO()
        write_aiger(build(name, "default", **overrides), buffer, binary=True)
        inputs[f"{name}@pipeline"] = read_aiger(io.BytesIO(buffer.getvalue()))
    return inputs


def count_rows(scale: str = "ci") -> dict:
    """:func:`rule_counts` per registry circuit at ``scale`` and per
    ``pipeline`` circuit."""
    rows = {f"{name}@{scale}": rule_counts(build(name, scale)) for name in BENCHMARK_NAMES}
    for label, mig in pipeline_inputs().items():
        rows[label] = rule_counts(mig)
    return rows


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

    def best_time(rewrite, mig, options, repeats):
        best = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            result = rewrite(mig, options)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best[0]:
                best = (elapsed, result)
        return best

    circuits = []
    wall_start = time.perf_counter()
    inputs = {name: benchmark_info(name).build(args.scale) for name in REPRESENTATIVE}
    inputs.update(pipeline_inputs())
    for name, mig in inputs.items():
        pipeline = name.endswith("@pipeline")
        options = COUNT_OPTIONS if pipeline else RewriteOptions(effort=4)
        repeats = 1 if pipeline else args.repeats
        row = {"circuit": name, "gates_before": mig.num_gates, "repeats": repeats, "engines": {}}
        for engine, rewrite in rewrite_engines().items():
            seconds, rewritten = best_time(rewrite, mig, options, repeats)
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
    counts = count_rows(args.scale)
    for label, row in counts.items():
        d, a = row["omega_d"], row["omega_a"]
        print(
            f"{label}: Ω.D {d['past_reject']}/{d['visits']} tried, {d['fired']} fired; "
            f"Ω.A {a['past_reject']}/{a['visits']} tried, {a['fired']} fired; "
            f"{row['speculative']['reserved']} reserved, "
            f"{row['speculative']['materialized']} materialized"
        )
    wall = time.perf_counter() - wall_start
    larger = [
        row["circuit"] for row in circuits
        if row["engines"]["worklist"]["gates_after"] > row["engines"]["rebuild"]["gates_after"]
    ]

    _common.write_snapshot(
        args.output,
        "rewriting",
        circuits,
        wall,
        scale=args.scale,
        repeats=args.repeats,
        counts=counts,
    )
    if larger:
        print(f"FAIL: the worklist engine leaves more gates than the reference on {larger}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
