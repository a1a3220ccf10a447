"""Helpers shared by the perfbench workloads: paths, statistics, set-up clocks."""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: the benchmark's own directory and the checkout root above it
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: run outputs (result files, Chrome traces); ignored by git
RESULTS_DIR = BENCH_DIR / "results"

#: repetitions of the short parts of set-up (interpreter start, input
#: generation, server start); setup_s adds up the shortest time of each
#: (as timeit does), so one slow spell of a shared host does not move it
SETUP_REPEATS = 3

#: percentiles considered for "the highest percentile with >= 10 samples
#: beyond it"
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


#: CPUs this process may use; with two or more, the serve_mix generator
#: takes the first and the server the second
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

#: about the wall time of one round of :func:`reference_work` on an
#: uncontended CPU of the 2-vCPU x86-64 host the benchmark was written on.
#: Timings are reported in "reference seconds": the time measured, times
#: REFERENCE_S over the time per round the same CPU took for the reference
#: work right before and after.  The host's CPUs swing between speeds up to
#: 2x apart, in spells of a second to a minute, so the wall time of one run
#: spread by 0.2-0.4 (quartile distance over median) from run to run; the
#: ratio to the reference work cancels most of that.
REFERENCE_S = 0.004
#: rounds of reference work per in-process probe (about 20 ms)
PROBE_ROUNDS = 4


def pin(pid: int, slot: int) -> None:
    """Pin process ``pid`` (0: this one) to CPU ``slot`` of :data:`CPUS`."""
    if len(CPUS) >= 2:
        os.sched_setaffinity(pid, {CPUS[slot]})


class _Node:
    __slots__ = ("a", "b", "c", "level")

    def __init__(self, a, b, c, level):
        self.a, self.b, self.c, self.level = a, b, c, level


def reference_work(rounds: int = 1) -> int:
    """A fixed amount of pure-Python work shaped like the compiler's: a
    strashed majority-gate DAG with fanout lists and levels, sorted by
    level, then a bitwise majority table.  It lives in the benchmark, so
    a change to the program cannot change it."""
    total = 0
    for _ in range(rounds):
        rng = random.Random(11)
        nodes = [_Node(-1, -1, -1, 0) for _ in range(32)]
        strash, fanout = {}, [[] for _ in range(32)]
        for _ in range(500):
            k = len(nodes)
            key = tuple(sorted(rng.randrange(k) << 1 | rng.randrange(2) for _ in range(3)))
            if key in strash:
                continue
            level = 1 + max(nodes[e >> 1].level for e in key)
            strash[key] = k
            nodes.append(_Node(*key, level))
            fanout.append([])
            for e in key:
                fanout[e >> 1].append(k)
        order = sorted(range(len(nodes)), key=lambda v: (nodes[v].level, v))
        values = [rng.getrandbits(64) for _ in range(64)]
        table = {}
        for i in range(750):
            a = values[rng.randrange(len(values))]
            b = values[rng.randrange(len(values))]
            c = values[-1 - i % 61]
            key = (a ^ (b << 1) ^ (c >> 3)) & 0xFFFFFF
            if key not in table:
                table[key] = (a & b) | (a & c) | (b & c)
                values.append(table[key])
        total += order[-1] + len(table)
    return total


def reference_s(rounds: int = PROBE_ROUNDS) -> float:
    """Wall time per round of ``rounds`` rounds of the reference work on
    this CPU, with the collector off so that the program's heap cannot
    change it."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work(rounds)
        return (time.perf_counter() - start) / rounds
    finally:
        gc.enable()


def normalized(elapsed: float, reference: float) -> float:
    """``elapsed`` in reference seconds, given the reference work's time
    per round on the same CPU around it."""
    return elapsed * REFERENCE_S / reference


class Probe:
    """Converts the wall times of consecutive calls on this CPU to
    reference seconds: the reference work runs when the probe is made and
    after each call, and each call's time is divided by the mean of the
    runs on either side of it.  The collector runs before each reference
    run, so garbage is collected outside the calls' clocks."""

    def __init__(self):
        self.before = reference_s()

    def normalized(self, elapsed: float) -> float:
        after = reference_s()
        value = normalized(elapsed, (self.before + after) / 2)
        self.before = after
        return value


def require_source_tree() -> None:
    """Exit with status 2 unless the package sources sit next to perfbench."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package sources at {SRC}/repro; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """The BENCHMARK.json next to the benchmark directory."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> "float | None":
    """The highest percentile that leaves at least ten samples beyond it."""
    for p in _TAIL_PERCENTILES:
        if count * (1.0 - p / 100.0) >= 10:
            return p
    return None


def describe_timing(values_ms) -> str:
    """``p50 X ms, p95 Y ms (n=N, tail pZ)`` for a human-readable report."""
    values = list(values_ms)
    tail = tail_percentile(len(values))
    tail_text = (
        f"p{tail:g} {percentile(values, tail):.2f} ms" if tail is not None
        else "no percentile has 10 samples beyond it"
    )
    return (
        f"p50 {statistics.median(values):.2f} ms, p95 "
        f"{percentile(values, 95):.2f} ms (n={len(values)}; {tail_text})"
    )


def fresh_start_s(module: str) -> float:
    """Shortest time, in reference seconds, of SETUP_REPEATS fresh
    interpreters that import ``module``: interpreter start-up plus the
    benchmark's and the package's imports, from spawn to exit."""
    code = f"import sys; sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC)!r}]; import {module}"
    probe, times = Probe(), []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(probe.normalized(time.perf_counter() - start))
    return min(times)


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}

