"""The compile workloads: binary AIGER bytes → verified PLiM program.

Each circuit goes through the shipped layers in turn, and the benchmark
times each call: ``read_aiger`` → ``rewrite_for_plim`` (``pipeline``
only) → ``PlimCompiler.compile`` (whose ``last_timings`` split schedule
from translate) → ``verify_program``.  The option sets are the ones
``compile_mig`` builds by default; :func:`same_path_mismatches` proves it
on every workload circuit at ci scale.
"""

from __future__ import annotations

import hashlib
import io
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

from common import (
    SETUP_REPEATS,
    describe_timing,
    fresh_start_s,
    metric,
    Probe,
    peak_rss_mb,
    percentile,
    pin,
)
from tracing import Tracer, format_table, patched

import repro.plim.verify as verify_module
from repro.circuits.registry import build
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.pipeline import compile_mig
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.context import AnalysisContext
from repro.mig.io_aiger import read_aiger, write_aiger
from repro.mig.simulate import simulate
from repro.plim.machine import PlimMachine
from repro.plim.verify import verify_program

#: workload → circuits (registry names), whether Algorithm 1 runs, and
#: registry parameters that differ from the scale's
WORKLOADS = {
    "pipeline": {
        "circuits": ("mem_ctrl", "voter", "sin"),
        "rewrite": True,
        "overrides": {"mem_ctrl": {"num_outputs": 80}},
    },
    "compile_only": {
        "circuits": ("multiplier", "div", "log2", "square"),
        "rewrite": False,
        "overrides": {},
    },
}
#: Every circuit takes 0.2-0.6 s, so that the reference work right before
#: and after a circuit's run meets the CPU at the speed the run met: the
#: host's speed spells last a second or more.  mem_ctrl at default scale
#: (17,438 nodes) took 2.4 s, so it keeps 80 of its 308 outputs (4,574
#: nodes); at paper scale a pass took 15-20 s.
SCALE = "default"
#: random patterns per program in the independent check (numpy machine
#: kernel); the default verify_program budget is 4 x 256
CHECK_PATTERNS = 8192
#: whole timed passes every run makes, whatever --seconds says
MIN_PASSES = 2

COMPILER_OPTIONS = CompilerOptions()
#: what compile_mig builds for effort 4 / objective "size" under
#: COMPILER_OPTIONS (complemented outputs cost 2 instructions each)
REWRITE_OPTIONS = RewriteOptions(
    effort=4,
    po_negation_cost=2 if COMPILER_OPTIONS.fix_output_polarity else 0,
    engine="worklist",
    objective="size",
)


def _no_span(name, **args):
    return nullcontext({})


@dataclass
class CircuitRun:
    """One circuit through every layer, with the time of each call."""

    name: str
    source: object
    compiled: object
    program: object
    parse_s: float
    rewrite_s: float
    compile_s: float
    schedule_s: float
    translate_s: float
    verify_s: float
    verified: bool
    patterns: int

    @property
    def wall_s(self) -> float:
        return self.parse_s + self.rewrite_s + self.compile_s + self.verify_s


def aiger_bytes(mig) -> bytes:
    buffer = io.BytesIO()
    write_aiger(mig, buffer, binary=True)
    return buffer.getvalue()


def compile_file(name: str, data: bytes, rewrite: bool, tracer=None) -> CircuitRun:
    """Run one circuit file through the layers, timing each call."""
    span = tracer.span if tracer is not None else _no_span
    clock = time.perf_counter
    t0 = clock()
    with span("io.read_aiger", circuit=name, bytes=len(data)):
        source = read_aiger(io.BytesIO(data))
    t1 = clock()
    if rewrite:
        with span("rewriting.rewrite_for_plim", circuit=name, gates_in=source.num_gates):
            compiled = rewrite_for_plim(source, REWRITE_OPTIONS)
    else:
        compiled = source
    t2 = clock()
    compiler = PlimCompiler(COMPILER_OPTIONS)
    with span("compiler.compile", circuit=name) as args:
        program = compiler.compile(compiled)
    t3 = clock()
    timings = compiler.last_timings
    args.update(timings)
    with span("verify.verify_program", circuit=name):
        check = verify_program(compiled, program)
    t4 = clock()
    return CircuitRun(
        name=name,
        source=source,
        compiled=compiled,
        program=program,
        parse_s=t1 - t0,
        rewrite_s=t2 - t1,
        compile_s=t3 - t2,
        schedule_s=timings["schedule_seconds"],
        translate_s=timings["translate_seconds"],
        verify_s=t4 - t3,
        verified=check.ok,
        patterns=check.patterns_checked,
    )


def check_program(source, program, rng: random.Random, patterns: int = CHECK_PATTERNS) -> bool:
    """Independent check: the numpy machine kernel against ``simulate`` of
    the parsed source, under ``patterns`` random input patterns."""
    assignment = {name: rng.getrandbits(patterns) for name in source.pi_names()}
    machine = PlimMachine.for_program(program, width=patterns, kernel="numpy")
    actual = machine.run_program(program, assignment)
    expected = simulate(source, assignment, patterns)
    return actual == expected


def same_path_mismatches(names) -> list[str]:
    """Circuits (ci scale) whose composed layer calls and ``compile_mig``
    give different ``.plim`` text, with rewriting on and off."""
    mismatches = []
    for name in names:
        data = aiger_bytes(build(name, "ci"))
        for rewrite in (True, False):
            composed = compile_file(name, data, rewrite).program.to_text()
            shipped = compile_mig(read_aiger(io.BytesIO(data)), rewrite=rewrite)
            if composed != shipped.program.to_text():
                mismatches.append(f"{name} (rewrite={rewrite})")
    return mismatches


def _program_digest(program) -> str:
    return hashlib.sha256(program.to_text().encode("utf-8")).hexdigest()


def _run_pass(circuits, files, rewrite, tracer=None):
    """One timed pass over the circuits; returns (runs, failures)."""
    runs, failures = [], []
    for name in circuits:
        try:
            runs.append(compile_file(name, files[name], rewrite, tracer))
        except Exception as error:  # a failed compile is counted, not fatal
            failures.append(f"{name}: {type(error).__name__}: {error}")
    return runs, failures


def _traced_pass(circuits, files, rewrite):
    """One pass with spans, including the machine and simulator calls that
    only ``verify_program`` reaches."""
    tracer = Tracer()
    start = time.perf_counter()
    with patched(tracer, PlimMachine, "run_program", "machine.run_program"), patched(
        tracer, verify_module, "simulate", "simulate.simulate"
    ):
        runs, failures = _run_pass(circuits, files, rewrite, tracer)
    return tracer, runs, failures, time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, trace: bool, trace_path) -> dict:
    spec = WORKLOADS[workload]
    circuits, rewrite = spec["circuits"], spec["rewrite"]
    errors: list[str] = []

    # --- set-up: interpreter start + imports, then circuit generation and
    # serialisation to binary AIGER, each repeated; setup_s adds the best
    # times.  Every time is in reference seconds (see common.REFERENCE_S),
    # and the reference work runs on the same CPU: this process, and the
    # interpreters it starts, stay on the first CPU.
    pin(0, 0)
    import_s = fresh_start_s(__name__)
    files, generation_s, probe = None, [], Probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        generated = {
            name: aiger_bytes(build(name, SCALE, **spec["overrides"].get(name, {})))
            for name in circuits
        }
        generation_s.append(probe.normalized(time.perf_counter() - start))
        if files is not None and generated != files:
            errors.append("circuit generation is not deterministic")
        files = generated
    setup_s = import_s + min(generation_s)

    # --- timed runs: whole passes over the circuits in the order listed
    # (drawn per seed, the position of mem_ctrl moved the peak RSS by 9%),
    # at least MIN_PASSES, and another while the last pass still fits in
    # `seconds`.  Each run is timed in reference seconds, and each circuit
    # scores the median of its runs.  The seed draws the independent
    # check's patterns.
    first, digests, failures, scores, walls = [], {}, [], {}, []
    passes = attempted = gates_done = 0
    last_pass = 0.0
    run_start = time.perf_counter()
    probe = Probe()
    while passes < MIN_PASSES or time.perf_counter() - run_start + last_pass <= seconds:
        pass_start = time.perf_counter()
        for name in circuits:
            attempted += 1
            runs, run_failures = _run_pass([name], files, rewrite)
            failures += run_failures
            for r in runs:  # every run must emit the same program
                if passes == 0:
                    first.append(r)
                walls.append(r.wall_s)
                gates_done += r.source.num_gates
                scores.setdefault(r.name, []).append(probe.normalized(r.wall_s))
                digest = _program_digest(r.program)
                if digests.setdefault(r.name, digest) != digest:
                    errors.append(f"{r.name}: program differs between runs")
                if not r.verified:
                    failures.append(f"{r.name}: verify_program rejected the program")
            del runs
        if passes == 0:
            rss_mb = peak_rss_mb()
        passes += 1
        last_pass = time.perf_counter() - pass_start

    # --- outside the timed window: independent checks
    rng = random.Random(seed ^ 0x5EED)
    for r in first:
        if not check_program(r.source, r.program, rng):
            failures.append(f"{r.name}: independent {CHECK_PATTERNS}-pattern check failed")
    mismatches = same_path_mismatches(circuits)
    if mismatches:
        errors.append("composed layers differ from compile_mig on " + ", ".join(mismatches))

    gates_in = sum(r.source.num_gates for r in first)
    median_s = {name: statistics.median(values) for name, values in scores.items()}
    score_s = [median_s[r.name] for r in first]
    e2e = {
        "setup_s": metric(setup_s, "s"),
        "gates_per_s": metric(gates_in / sum(score_s), "gates/s"),
        "num_instructions": metric(sum(r.program.num_instructions for r in first), "count"),
        "num_rrams": metric(sum(r.program.num_rrams for r in first), "count"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
        "latency_p50_ms": metric(statistics.median(score_s) * 1e3, "ms"),
        "latency_p95_ms": metric(percentile(score_s, 95) * 1e3, "ms"),
        "throughput_rps": metric(len(score_s) / sum(score_s), "1/s"),
    }
    report = [
        f"{workload}: {len(circuits)} circuits at {SCALE} scale, {passes} timed passes "
        f"({attempted} runs), rewrite={'on' if rewrite else 'off'}, seed {seed}",
        f"  set-up {setup_s:.3f} ref s, best of {SETUP_REPEATS} (start+imports "
        f"{import_s:.3f} s, generation {min(generation_s):.3f} s)",
        "  first pass (wall s), and each circuit's median run in reference seconds:",
        f"  {'circuit':<11}{'gates in':>9}{'gates out':>10}{'#I':>8}{'#R':>6}"
        f"{'parse':>8}{'rewrite':>9}{'sched':>7}{'transl':>8}{'verify':>8}{'wall s':>8}"
        f"{'ref s':>8}",
    ]
    for r in first:
        report.append(
            f"  {r.name:<11}{r.source.num_gates:>9}{r.compiled.num_gates:>10}"
            f"{r.program.num_instructions:>8}{r.program.num_rrams:>6}"
            f"{r.parse_s:>8.3f}{r.rewrite_s:>9.3f}{r.schedule_s:>7.3f}"
            f"{r.translate_s:>8.3f}{r.verify_s:>8.3f}{r.wall_s:>8.3f}{median_s[r.name]:>8.3f}"
        )
    report.append(
        "  per-circuit file→verified latency, median run, reference ms: "
        + describe_timing([b * 1e3 for b in score_s])
    )
    report.append(f"  every run, wall ms: {describe_timing([w * 1e3 for w in walls])}")
    report.append(
        "  every run, reference ms: "
        + describe_timing([v * 1e3 for values in scores.values() for v in values])
    )

    layers, per_layer = {}, {}
    if trace:
        tracer, traced, traced_failures, traced_wall = _traced_pass(circuits, files, rewrite)
        failures += traced_failures
        mean_gates_per_s = gates_done / sum(walls)
        per_layer = _layer_metrics(tracer, traced, mean_gates_per_s)
        layers = {"wall_s": traced_wall, "self": tracer.self_times()}
        tracer.write(trace_path)
        report.append(format_table(f"{workload} traced pass", layers["self"], traced_wall))
        report.append(
            f"  tracing overhead: {per_layer['trace.overhead_pct']['value']:+.2f}% "
            f"gates_per_s (traced pass {gates_in / sum(r.wall_s for r in traced):.0f} vs "
            f"untraced run mean {mean_gates_per_s:.0f}); trace written to {trace_path}"
        )
    return {
        "e2e": e2e,
        "per_layer": per_layer,
        "layers": layers,
        "attempted": attempted,
        "failures": failures,
        "errors": errors,
        "report": report,
    }


def _layer_metrics(tracer: Tracer, runs, untraced_gates_per_s: float) -> dict:
    """Per-layer metrics of one traced pass."""
    gates_in = sum(r.source.num_gates for r in runs)
    gates_out = sum(r.compiled.num_gates for r in runs)
    instructions = sum(r.program.num_instructions for r in runs)
    parse_s = sum(r.parse_s for r in runs)
    translate_s = sum(r.translate_s for r in runs)
    traced_gates_per_s = gates_in / sum(r.wall_s for r in runs)
    return {
        "io.parse_s": metric(parse_s, "s"),
        "io.nodes_per_s": metric(gates_in / parse_s, "nodes/s"),
        "rewriting.busy_s": metric(sum(r.rewrite_s for r in runs), "s"),
        "rewriting.gates_ratio": metric(gates_out / gates_in, "ratio"),
        "rewriting.depth_out": metric(
            sum(AnalysisContext(r.compiled).depth for r in runs), "levels"
        ),
        "schedule.busy_s": metric(sum(r.schedule_s for r in runs), "s"),
        "translate.busy_s": metric(translate_s, "s"),
        "translate.instr_per_s": metric(instructions / translate_s, "instr/s"),
        "verify.busy_s": metric(sum(r.verify_s for r in runs), "s"),
        "verify.patterns": metric(sum(r.patterns for r in runs), "count"),
        "machine.busy_s": metric(tracer.busy("machine.run_program"), "s"),
        "simulate.busy_s": metric(tracer.busy("simulate.simulate"), "s"),
        "trace.overhead_pct": metric(
            100.0 * (untraced_gates_per_s - traced_gates_per_s) / untraced_gates_per_s, "%"
        ),
    }
