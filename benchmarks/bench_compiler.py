"""Algorithm 2 benches (A2) and the candidate-selection ablation (X2/X5).

Measures compilation throughput and compares scheduling/translation rule
sets on both as-built and shuffled (netlist-file-like) gate orders, which
is where candidate selection earns the paper's #R reductions.

Run directly (``python benchmarks/bench_compiler.py [--scale ci] [--workers N]``)
to emit ``BENCH_compiler.json`` next to this file: wall time plus #I/#R per
registry circuit, so successive PRs have a machine-readable perf trajectory.
Its ``cutoff`` section shows what ``reorder="best"`` compiles per rewritten
circuit: the DFS image in full, then as many as-given gates as it takes
to prove that order loses (all of them when it does not), and the order
that won.
"""

from unittest import mock

try:
    import pytest
except ModuleNotFoundError:  # standalone snapshot mode needs no pytest
    pytest = None

from repro.circuits.registry import benchmark_info
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.rewriting import rewrite_for_plim
from repro.core.translate_fast import FastTranslationState
from repro.eval.ablations import SELECTION_CONFIGS
from repro.mig.reorder import shuffle_topological

REPRESENTATIVE = ["bar", "mem_ctrl"]

if pytest is not None:

    @pytest.mark.parametrize("name", REPRESENTATIVE)
    def test_compile_throughput(benchmark, name, scale):
        mig = rewrite_for_plim(benchmark_info(name).build(scale))
        compiler = PlimCompiler(CompilerOptions(fix_output_polarity=False))
        program = benchmark(compiler.compile, mig)
        benchmark.extra_info.update(
            {
                "scale": scale,
                "gates": mig.num_gates,
                "instructions": program.num_instructions,
                "work_rrams": program.num_rrams,
            }
        )

    @pytest.mark.parametrize("config", list(SELECTION_CONFIGS))
    @pytest.mark.parametrize("order", ["as-built", "shuffled"])
    def test_selection_rules(benchmark, config, order, scale):
        """X2/X5: every scheduling rule set on friendly and hostile orders."""
        mig = rewrite_for_plim(benchmark_info("mem_ctrl").build(scale))
        if order == "shuffled":
            mig = shuffle_topological(mig, seed=42)
        compiler = PlimCompiler(SELECTION_CONFIGS[config])
        program = benchmark(compiler.compile, mig)
        benchmark.extra_info.update(
            {
                "scale": scale,
                "order": order,
                "instructions": program.num_instructions,
                "work_rrams": program.num_rrams,
            }
        )

    def test_scheduler_beats_naive_on_hostile_order(scale):
        """The paper's central #R claim, on netlist-file-like gate order."""
        mig = rewrite_for_plim(benchmark_info("mem_ctrl").build(scale))
        hostile = shuffle_topological(mig, seed=42)
        naive = PlimCompiler(
            CompilerOptions.naive(fix_output_polarity=False)
        ).compile(hostile)
        smart = PlimCompiler(CompilerOptions(fix_output_polarity=False)).compile(hostile)
        assert smart.num_rrams < naive.num_rrams
        assert smart.num_instructions < naive.num_instructions


# ----------------------------------------------------------------------
# standalone mode: machine-readable perf trajectory (BENCH_compiler.json)
# ----------------------------------------------------------------------


def cutoff_row(mig) -> dict:
    """One default compile of ``mig``: gates translated per order and the
    order that won (translations counted by wrapping the per-gate step)."""
    runs = []
    real_gate_step = FastTranslationState.gate_step

    def gate_step(self, naive=False):
        step = real_gate_step(self, naive)

        def counted(node):
            runs[-1][0] += 1
            step(node)

        return counted

    class Recorder(PlimCompiler):
        def _compile_ordered(self, ctx, bound=None):
            runs.append([0, None])
            runs[-1][1] = super()._compile_ordered(ctx, bound)
            return runs[-1][1]

    with mock.patch.object(FastTranslationState, "gate_step", gate_step):
        program = Recorder().compile(mig)
    (dfs_gates, dfs), (as_given_gates, as_given) = runs
    return {
        "num_gates": dfs_gates,
        "dfs": {"num_rrams": dfs.num_rrams, "num_instructions": dfs.num_instructions},
        "as_given_gates": as_given_gates,
        "cut_off": as_given is None,
        "winner": "dfs" if program is dfs else "as_given",
    }


def main(argv=None) -> int:
    """Compile the registry and write BENCH_compiler.json (time, #I, #R)."""
    import time

    import _common

    from repro.circuits.registry import BENCHMARK_NAMES
    from repro.core.batch import compile_many

    parser = _common.snapshot_parser(main.__doc__, __file__, "BENCH_compiler.json")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    specs = [(name, args.scale) for name in BENCHMARK_NAMES]
    option_sets = {"full": CompilerOptions(), "naive": CompilerOptions.naive()}
    start = time.perf_counter()
    results = compile_many(specs, option_sets, workers=args.workers, rewrite=True)
    wall = time.perf_counter() - start
    cutoff = {
        name: cutoff_row(rewrite_for_plim(benchmark_info(name).build(args.scale)))
        for name in BENCHMARK_NAMES
    }

    _common.write_snapshot(
        args.output,
        "compiler",
        [r.to_dict() for r in results],
        wall,
        scale=args.scale,
        workers=args.workers,
        cutoff=cutoff,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
