"""``plimc`` — command-line interface to the PLiM compiler.

Subcommands::

    plimc compile <circuit> [-o out.plim] [--naive] [--no-rewrite]
                  [--objective size|depth|plim]
                  [--cache-dir DIR] ...
    plimc stats <circuit>
    plimc run <program.plim> --set a=1 --set b=0 ...
    plimc bench <name> [--scale ci|default|paper]
    plimc batch <circuit|name>... [--configs full,naive] [--workers N] [--json]
    plimc pareto <circuit|name> [--scale ...] [--workers N] [--max-points K]
                 [--axes A,B] [--cache-dir DIR] [--json]
    plimc table1 [--scale ...] [--shuffled] [--csv] [--workers N] [--cache-dir DIR]
    plimc fig3
    plimc ablate <name> [--scale ...] [--workers N]
    plimc cache stats|clear|trim <dir>

``--workers N`` flags default to one worker per CPU; ``--cache-dir DIR``
flags persist a content-addressed synthesis cache across runs
(``plimc cache`` inspects, empties, or shrinks one; ``--cache-max-bytes``
sets a standing LRU eviction cap).  The pooled subcommands (``batch``,
``pareto``, ``table1``) take a fault policy — ``--timeout`` kills hung
tasks, ``--retries`` re-runs failed ones, and ``--on-error skip``
degrades failures into per-task records (partial results) instead of
aborting the run.

Exit codes: 0 success, 1 verification failure, 2 usage/input error
(:class:`~repro.errors.ReproError`), 3 a task failed permanently under
``--on-error raise``, 130 interrupted (Ctrl-C).

Circuit files are detected by extension: ``.mig`` (native), ``.blif``,
``.aag``/``.aig`` (ASCII/binary AIGER — ``read_aiger`` sniffs the header,
so either extension accepts either flavour).  ``plimc <subcommand> --help`` documents every
flag; the full walkthrough with example output lives in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro._version import __version__
from repro.circuits.registry import BENCHMARK_NAMES, SCALES, benchmark_info
from repro.core.compiler import CompilerOptions
from repro.core.cost import OBJECTIVE_NAMES
from repro.core.pipeline import compile_mig
from repro.core.resilience import ON_ERROR_MODES, TaskError, TaskFailure, TaskPolicy
from repro.errors import ReproError
from repro.eval import ablations
from repro.eval.fig3 import run_fig3
from repro.eval.table1 import format_table1, run_table1, table1_csv
from repro.mig.analysis import stats as mig_stats
from repro.mig.graph import Mig
from repro.mig.io_aiger import read_aiger
from repro.mig.io_blif import read_blif
from repro.mig.io_mig import read_mig
from repro.mig.io_verilog import write_verilog
from repro.plim.machine import PlimMachine
from repro.plim.program import Program
from repro.plim.verify import verify_program

READERS = {
    ".mig": read_mig,
    ".blif": read_blif,
    ".aag": read_aiger,
    ".aig": read_aiger,
}


def load_circuit(path: str) -> Mig:
    """Read a circuit file, dispatching on its extension."""
    suffix = Path(path).suffix.lower()
    try:
        reader = READERS[suffix]
    except KeyError:
        raise ReproError(
            f"unknown circuit format {suffix!r}; expected one of {sorted(READERS)}"
        ) from None
    return reader(path)


def _resolve_cli_circuit(item: str, scale: str):
    """A registry benchmark name or circuit file → ``(spec, display name)``.

    The spec is what the batch/pareto drivers accept: a ``(name, scale)``
    pair for registry benchmarks (resolved inside the workers) or a loaded
    :class:`Mig` for circuit files.
    """
    if item in BENCHMARK_NAMES:
        return (item, scale), item
    if Path(item).suffix.lower() in READERS:
        mig = load_circuit(item)
        return mig, (mig.name or item)
    raise ReproError(
        f"{item!r} is neither a registry benchmark nor a known "
        f"circuit file; benchmarks: {BENCHMARK_NAMES}"
    )


def _make_cache(args):
    """The ``--cache-dir`` synthesis cache, or ``None`` when not given."""
    if getattr(args, "cache_dir", None) is None:
        if getattr(args, "cache_max_bytes", None) is not None:
            raise ReproError("--cache-max-bytes requires --cache-dir")
        return None
    from repro.core.cache import SynthesisCache

    return SynthesisCache(
        args.cache_dir, max_bytes=getattr(args, "cache_max_bytes", None)
    )


def _make_policy(args) -> TaskPolicy | None:
    """The task policy of the ``--timeout/--retries/--on-error`` flags.

    ``None`` when every flag is at its default (the engine then uses its
    own default policy); invalid values (negative timeout/retries) are
    rejected by :class:`~repro.core.resilience.TaskPolicy` itself with a
    :class:`~repro.errors.ReproError` → exit code 2.
    """
    timeout = getattr(args, "timeout", None)
    retries = getattr(args, "retries", 0)
    on_error = getattr(args, "on_error", "raise")
    if timeout is None and not retries and on_error == "raise":
        return None
    return TaskPolicy(timeout_s=timeout, retries=retries, on_error=on_error)


def _report_task_failures(context: str, failures) -> None:
    """One stderr line per permanently failed task of a skip-mode run."""
    for label, failure in failures:
        print(
            f"plimc: {context}: {label} failed after {failure.attempts} "
            f"attempt(s) [{failure.kind}]: {failure.message}",
            file=sys.stderr,
        )


def _cmd_compile(args) -> int:
    mig = load_circuit(args.circuit)
    if args.naive:
        options = CompilerOptions.naive(fix_output_polarity=not args.paper_outputs)
    else:
        options = CompilerOptions(
            fix_output_polarity=not args.paper_outputs,
            max_work_cells=args.max_rrams,
        )
    result = compile_mig(
        mig,
        rewrite=not args.no_rewrite,
        effort=args.effort,
        objective=args.objective,
        compiler_options=options,
        cache=_make_cache(args),
    )
    program = result.program
    print(
        f"{mig.name or args.circuit}: {result.num_gates} gates -> "
        f"{program.num_instructions} instructions, {program.num_rrams} work RRAMs",
        file=sys.stderr,
    )
    verify_failed = False
    if args.verify:
        start = time.perf_counter()
        check = verify_program(result.compiled_mig, program)
        result.verify_seconds = time.perf_counter() - start
        print(f"verification ({check.mode}): {'OK' if check.ok else 'FAILED'}", file=sys.stderr)
        verify_failed = not check.ok
    if args.json:
        record = {
            "circuit": mig.name or args.circuit,
            "num_gates": result.num_gates,
            "num_instructions": program.num_instructions,
            "num_rrams": program.num_rrams,
            "rewrite_seconds": result.rewrite_seconds,
            "schedule_seconds": result.schedule_seconds,
            "translate_seconds": result.translate_seconds,
            "verify_seconds": result.verify_seconds,
        }
        if args.verify:
            record["verified"] = not verify_failed
        print(json.dumps(record, indent=2))
    if verify_failed:
        return 1
    if args.listing:
        print(program.listing())
    if args.emit_verilog:
        write_verilog(result.compiled_mig, args.emit_verilog)
        print(f"wrote {args.emit_verilog}", file=sys.stderr)
    if args.output:
        Path(args.output).write_text(program.to_text(), encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    elif not args.listing and not args.json:
        print(program.to_text(), end="")
    return 0


def _cmd_stats(args) -> int:
    mig = load_circuit(args.circuit)
    print(f"{mig.name or args.circuit}: {mig_stats(mig)}")
    return 0


def _program_and_inputs(args) -> tuple[Program, dict[str, int]]:
    """The ``.plim`` program of ``run``/``controller`` and its ``--set
    name=0|1`` inputs, every input cell given a value."""
    program = Program.from_text(Path(args.program).read_bytes())
    inputs = {}
    for assignment in args.set or []:
        name, _, value = assignment.partition("=")
        if value not in ("0", "1"):
            raise ReproError(f"input values must be 0 or 1, got {assignment!r}")
        inputs[name] = int(value)
    missing = sorted(set(program.input_cells) - set(inputs))
    if missing:
        raise ReproError(f"missing inputs: {', '.join(missing)} (use --set name=0)")
    return program, inputs


def _cmd_run(args) -> int:
    program, inputs = _program_and_inputs(args)
    machine = PlimMachine.for_program(program)
    outputs = machine.run_program(program, inputs)
    for name in sorted(outputs):
        print(f"{name} = {outputs[name]}")
    print(
        f"# {machine.instruction_count} instructions, {machine.cycle_count} cycles",
        file=sys.stderr,
    )
    return 0


def _cmd_controller(args) -> int:
    """Run a .plim program on the von Neumann fetching controller."""
    from repro.plim.controller import FetchingController

    program, inputs = _program_and_inputs(args)
    controller = FetchingController(program)
    outputs = controller.run(inputs)
    for name in sorted(outputs):
        print(f"{name} = {outputs[name]}")
    print(
        f"# stored program: {len(controller.image.bits)} code bits above "
        f"{controller.data_cells} data cells; "
        f"{controller.fetch_cycles} fetch + {controller.execute_cycles} "
        f"execute cycles",
        file=sys.stderr,
    )
    return 0


def _cmd_bench(args) -> int:
    from repro.eval.table1 import run_benchmark

    row = run_benchmark(args.name, args.scale, paper_accounting=not args.honest)
    info = benchmark_info(args.name)
    print(
        f"{args.name} ({args.scale}, {info.status}): PI/PO {row.pi}/{row.po}\n"
        f"  naive:                 N={row.naive_n}  I={row.naive_i}  R={row.naive_r}\n"
        f"  rewriting:             N={row.rewr_n}  I={row.rewr_i} ({row.rewr_i_impr:+.2f}%)"
        f"  R={row.rewr_r} ({row.rewr_r_impr:+.2f}%)\n"
        f"  rewriting+compilation: I={row.full_i} ({row.full_i_impr:+.2f}%)"
        f"  R={row.full_r} ({row.full_r_impr:+.2f}%)\n"
        f"  [{row.seconds:.2f}s]"
    )
    return 0


#: named option sets for ``plimc batch`` (kept minimal and composable)
BATCH_CONFIGS = {
    "full": lambda: CompilerOptions(),
    "naive": lambda: CompilerOptions.naive(),
    "no-selection": lambda: CompilerOptions.no_selection(),
    "paper-rules": lambda: CompilerOptions.paper_selection(),
}


def _cmd_batch(args) -> int:
    """Compile many circuits under many option sets via the batch driver."""
    from repro.core.batch import compile_many
    from repro.eval.reporting import format_table

    option_sets = {}
    for label in (args.configs or "full").split(","):
        label = label.strip()
        if label not in BATCH_CONFIGS:
            raise ReproError(
                f"unknown batch config {label!r}; available: {sorted(BATCH_CONFIGS)}"
            )
        option_sets[label] = BATCH_CONFIGS[label]()

    resolved = [_resolve_cli_circuit(item, args.scale) for item in args.circuits]
    specs = [spec for spec, _ in resolved]
    names = [name for _, name in resolved]
    results = compile_many(
        specs,
        option_sets,
        workers=args.workers,
        rewrite=args.rewrite,
        effort=args.effort,
        policy=_make_policy(args),
    )
    failures = [r for r in results if isinstance(r, TaskFailure)]
    compiled = [r for r in results if not isinstance(r, TaskFailure)]
    _report_task_failures(
        "batch", [(names[f.index], f) for f in failures]
    )
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        rows = [
            [r.circuit, r.option_label, r.num_gates, r.num_instructions,
             r.num_rrams, f"{r.seconds:.2f}s"]
            for r in compiled
        ]
        print(format_table(["circuit", "config", "#N", "#I", "#R", "time"], rows))
    return 0


def _cmd_table1(args) -> int:
    def progress(name, row):
        print(
            f"  {name:11s} I {row.naive_i:>8d} -> {row.full_i:>8d}   "
            f"R {row.naive_r:>6d} -> {row.full_r:>6d}   ({row.seconds:.1f}s)",
            file=sys.stderr,
        )

    result = run_table1(
        names=args.names or None,
        scale=args.scale,
        effort=args.effort,
        shuffled=args.shuffled,
        paper_accounting=not args.honest,
        progress=progress,
        workers=args.workers,
        cache=_make_cache(args),
        policy=_make_policy(args),
    )
    _report_task_failures("table1", result.failures)
    print(table1_csv(result) if args.csv else format_table1(result))
    return 0


def _cmd_fig3(args) -> int:
    report = run_fig3()
    print(report.summary())
    if args.listings:
        for label, program in [
            ("Fig. 3(a) before, naive", report.fig3a_before_naive),
            ("Fig. 3(a) after, smart", report.fig3a_after_smart),
            ("Fig. 3(b) naive", report.fig3b_naive),
            ("Fig. 3(b) smart", report.fig3b_smart),
        ]:
            print(f"\n{label}:\n{program.listing()}")
    return 0


def _cmd_ablate(args) -> int:
    print(ablations.run_benchmark_ablations(args.name, args.scale, workers=args.workers))
    return 0


def _cmd_pareto(args) -> int:
    """Sweep the (#N, #D) Pareto frontier of one circuit."""
    from repro.core.pareto import pareto_sweep
    from repro.eval.ablations import format_pareto_front

    spec, name = _resolve_cli_circuit(args.circuit, args.scale)
    axes_kwargs = {}
    if args.axes:
        axes_kwargs["axes"] = tuple(a.strip() for a in args.axes.split(","))
    front = pareto_sweep(
        spec,
        effort=args.effort,
        workers=args.workers,
        max_points=args.max_points,
        verify=not args.no_verify,
        paper_accounting=not args.honest,
        cache=_make_cache(args),
        policy=_make_policy(args),
        **axes_kwargs,
    )
    if front.incomplete:
        _report_task_failures(
            "pareto", zip(front.failed_budgets, front.failures)
        )
        print(
            f"plimc: pareto: partial frontier — "
            f"{len(front.failed_budgets)} budget point(s) failed: "
            f"{', '.join(front.failed_budgets)}",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(front.to_dict(), indent=2))
    else:
        print(format_pareto_front(name, front))
        print(
            f"# {len(front.points)} non-dominated point(s), "
            f"{len(front.dominated)} dominated candidate(s), "
            f"{front.seconds:.2f}s",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args) -> int:
    """Run the synthesis server (``plimc serve``) until SIGTERM/SIGINT."""
    import asyncio

    from repro.serve.app import PlimServer, ServerConfig
    from repro.serve.http import run_server

    config = ServerConfig(
        workers=args.workers,
        pooled=args.pooled,
        queue_limit=args.queue_limit,
        request_timeout_s=args.timeout,
        job_timeout_s=args.job_timeout,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
    )
    asyncio.run(run_server(PlimServer(config), args.host, args.port))
    return 0


def _cmd_cache(args) -> int:
    """Inspect (``stats``), empty (``clear``), or shrink (``trim``) a
    synthesis cache dir."""
    from repro.core.cache import SynthesisCache

    cache = SynthesisCache(args.dir)
    if args.cache_command == "stats" and getattr(args, "json", False):
        # the same snapshot GET /cache/stats serves, so the CLI and the
        # server can never disagree about what the numbers mean
        print(json.dumps(cache.stats_snapshot(), indent=2, sort_keys=True))
        return 0
    if args.cache_command == "stats":
        usage = cache.disk_usage()
        total_entries = sum(u["entries"] for u in usage.values())
        total_bytes = sum(u["bytes"] for u in usage.values())
        width = max(len(kind) for kind in (*usage, "total"))
        print(f"synthesis cache at {args.dir}")
        for kind, u in usage.items():
            print(
                f"  {kind:{width}s} {u['entries']:6d} entries,"
                f" {u['bytes']:10d} bytes"
            )
        print(
            f"  {'total':{width}s} {total_entries:6d} entries,"
            f" {total_bytes:10d} bytes"
        )
        return 0
    if args.cache_command == "trim":
        evicted = cache.trim(args.max_bytes)
        usage = cache.disk_usage()
        remaining = sum(u["bytes"] for u in usage.values())
        print(
            f"evicted {evicted} entries from {args.dir} "
            f"({remaining} bytes remain, cap {args.max_bytes})"
        )
        return 0
    removed = cache.clear()
    print(f"cleared {removed} entries from {args.dir}")
    return 0


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    """``--timeout/--retries/--on-error`` for the pooled subcommands."""
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task deadline; a task still running after this long is "
        "killed and counts as failed (default: no deadline)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-run a failed or timed-out task up to N more times with "
        "exponential backoff (default: 0)",
    )
    p.add_argument(
        "--on-error",
        choices=list(ON_ERROR_MODES),
        default="raise",
        help="what to do when a task fails permanently: raise aborts the run "
        "(default, exit code 3), skip records the failure and keeps the "
        "surviving results, degrade makes one last in-process attempt first",
    )


def _add_cache_max_bytes_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU eviction cap for the --cache-dir store (memory and disk "
        "enforced independently; default: unbounded)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plimc",
        description="MIG-based compiler for the PLiM logic-in-memory architecture "
        "(reproduction of Soeken et al., DAC 2016)",
    )
    parser.add_argument("--version", action="version", version=f"plimc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compile",
        help="compile a circuit file to a PLiM program",
        epilog="examples: plimc compile adder.blif --objective plim (keeps the "
        "rewrite whose compiled program has the fewest instructions);  "
        "plimc compile c.mig --objective depth;  "
        "use 'plimc pareto' to sweep the whole (#N, #D) trade-off",
    )
    p.add_argument("circuit", help="input circuit (.mig, .blif, .aag, .aig)")
    p.add_argument("-o", "--output", help="write the .plim program here")
    p.add_argument("--no-rewrite", action="store_true", help="skip Algorithm 1")
    p.add_argument("--effort", type=int, default=4, help="rewriting effort (default 4)")
    p.add_argument("--naive", action="store_true", help="use the naive baseline translator")
    p.add_argument("--listing", action="store_true", help="print the paper-style listing")
    p.add_argument("--verify", action="store_true", help="verify against the MIG on the machine model")
    p.add_argument(
        "--json",
        action="store_true",
        help="print a JSON record (counts + per-stage seconds: rewrite/"
        "schedule/translate/verify) to stdout instead of the program text",
    )
    p.add_argument(
        "--paper-outputs",
        action="store_true",
        help="leave complemented outputs in place (paper accounting)",
    )
    p.add_argument(
        "--max-rrams",
        type=int,
        default=None,
        metavar="N",
        help="compile within a work-RRAM budget (evicts complement caches)",
    )
    p.add_argument(
        "--objective",
        choices=OBJECTIVE_NAMES,
        default="size",
        help="rewriting objective: node count (size, the paper's Algorithm 1), "
        "critical path (depth) or real measured Algorithm 2 cost (plim, the "
        "synthesize/schedule/re-synthesize loop)",
    )
    p.add_argument(
        "--emit-verilog",
        metavar="FILE",
        help="also write the compiled MIG as structural Verilog",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist the synthesis cache here (rewrites memoized by "
        "content fingerprint across runs)",
    )
    _add_cache_max_bytes_flag(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("stats", help="print MIG statistics of a circuit file")
    p.add_argument("circuit")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("run", help="execute a .plim program on the machine model")
    p.add_argument("program")
    p.add_argument("--set", action="append", metavar="NAME=BIT", help="input assignment")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "controller", help="execute a .plim program on the von Neumann controller"
    )
    p.add_argument("program")
    p.add_argument("--set", action="append", metavar="NAME=BIT", help="input assignment")
    p.set_defaults(func=_cmd_controller)

    p = sub.add_parser("bench", help="measure one EPFL benchmark")
    p.add_argument("name", choices=BENCHMARK_NAMES)
    p.add_argument("--scale", choices=SCALES, default="default")
    p.add_argument("--honest", action="store_true", help="charge output polarity fix-ups")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "batch", help="compile many circuits under many option sets (process pool)"
    )
    p.add_argument(
        "circuits",
        nargs="+",
        metavar="CIRCUIT",
        help="registry benchmark names and/or circuit files (.mig, .blif, .aag, .aig)",
    )
    p.add_argument("--scale", choices=SCALES, default="default")
    p.add_argument(
        "--configs",
        default="full",
        metavar="A,B,...",
        help=f"comma-separated option sets (default: full; available: {','.join(BATCH_CONFIGS)})",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size (default: one per CPU)",
    )
    p.add_argument("--rewrite", action="store_true", help="run Algorithm 1 first")
    p.add_argument("--effort", type=int, default=4, help="rewriting effort (default 4)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "pareto",
        help="sweep a Pareto frontier of depth-budgeted rewriting",
        epilog="sweeps depth budgets from the depth-optimal point up to the "
        "unconstrained size-optimal point, compiles every point through "
        "Algorithm 2, equivalence-checks it, and keeps the non-dominated "
        "set over the chosen axes ((#N, #D) by default); examples: "
        "plimc pareto i2c --scale ci --workers 4; "
        "plimc pareto ctrl --axes num_instructions,num_rrams",
    )
    p.add_argument(
        "circuit",
        help="registry benchmark name or circuit file (.mig, .blif, .aag)",
    )
    p.add_argument("--scale", choices=SCALES, default="default")
    p.add_argument("--effort", type=int, default=4, help="rewriting effort (default 4)")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size for the sweep points (default: one per CPU)",
    )
    p.add_argument(
        "--max-points",
        type=int,
        default=None,
        metavar="K",
        help="cap on intermediate depth budgets (evenly subsampled; "
        "0 = the two extremes only)",
    )
    p.add_argument(
        "--axes",
        metavar="A,B",
        default=None,
        help="comma-separated frontier axes (default num_gates,depth); "
        "choose among num_gates, depth, num_instructions, num_rrams, "
        "cycles, wear — 'cycles' and 'wear' execute each point on the "
        "machine model to measure them",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the per-point equivalence check against the input",
    )
    p.add_argument("--honest", action="store_true", help="charge output polarity fix-ups")
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist the synthesis cache here (whole fronts and per-point "
        "rewrites memoized by content fingerprint across runs)",
    )
    _add_cache_max_bytes_flag(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("table1", help="reproduce the paper's Table 1")
    p.add_argument("--names", nargs="*", choices=BENCHMARK_NAMES, help="subset of benchmarks")
    p.add_argument("--scale", choices=SCALES, default="default")
    p.add_argument("--effort", type=int, default=4)
    p.add_argument("--shuffled", action="store_true", help="shuffle gate order first (file-like order)")
    p.add_argument("--honest", action="store_true", help="charge output polarity fix-ups")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of the ASCII table")
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size (default: one per CPU)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist the synthesis cache here (per-row rewrites memoized "
        "by content fingerprint across runs)",
    )
    _add_cache_max_bytes_flag(p)
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("fig3", help="regenerate the paper's motivating examples")
    p.add_argument("--listings", action="store_true", help="print the four program listings")
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser(
        "ablate",
        help="run the ablation studies (docs/cli.md#plimc-ablate) on one benchmark",
    )
    p.add_argument("name", choices=BENCHMARK_NAMES)
    p.add_argument("--scale", choices=SCALES, default="default")
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size for the ablation studies "
        "(default: one per CPU)",
    )
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser(
        "cache",
        help="inspect, clear, or trim a --cache-dir synthesis cache",
        epilog="examples: plimc cache stats .plim-cache;  "
        "plimc cache clear .plim-cache;  "
        "plimc cache trim .plim-cache --max-bytes 10000000",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for command, blurb in (
        ("stats", "entry counts and sizes of a cache directory"),
        ("clear", "delete every entry in a cache directory"),
        ("trim", "evict least-recently-used entries down to a byte budget"),
    ):
        pc = cache_sub.add_parser(command, help=blurb)
        pc.add_argument("dir", help="the synthesis cache directory")
        if command == "stats":
            pc.add_argument(
                "--json",
                action="store_true",
                help="machine-readable snapshot (same shape as the serve "
                "endpoint GET /cache/stats)",
            )
        if command == "trim":
            pc.add_argument(
                "--max-bytes",
                type=int,
                required=True,
                metavar="BYTES",
                help="the byte budget to trim down to (0 empties the cache)",
            )
        pc.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the HTTP synthesis server over a shared cache",
        epilog="example: plimc serve --port 8080 --cache-dir .plim-cache; "
        "then POST /compile with "
        '{"circuit": "<.mig text>", "format": "mig"} '
        "(see docs/serving.md for the endpoint reference)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8080, help="bind port")
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent compile slots (default: 2)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        metavar="N",
        help="max requests in the system before shedding with 429 "
        "(default: 8)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request compile deadline; a compile with a deadline runs "
        "on a worker process, killed when overdue (default: none)",
    )
    p.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline for background jobs (pareto/cost-loop; default: none)",
    )
    p.add_argument(
        "--pooled",
        action="store_true",
        help="run every compile on a supervised worker process, even "
        "without --timeout (crash isolation, at process-hop cost)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent synthesis cache shared by all requests "
        "(default: in-memory only)",
    )
    _add_cache_max_bytes_flag(p)
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TaskError as error:
        # a task failed permanently under --on-error raise (TaskError is a
        # ReproError subclass, so this must precede the generic handler)
        print(f"plimc: task failed: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"plimc: error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # missing/unreadable circuit files, unwritable outputs — user
        # input problems, not crashes: one line, no traceback
        print(f"plimc: error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("plimc: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
