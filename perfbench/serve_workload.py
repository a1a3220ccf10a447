"""The ``serve_mix`` workload: ``POST /compile`` over a real socket.

A ``plimc serve`` subprocess runs with its default flags (``--port 0`` picks
a free port).  One generator process, this one, sends binary AIGER payloads
in ``circuit_b64`` with at most two connections in flight.  About five in
six requests draw from a hot set (the registry at ci and default scale,
compiled once at set-up, so these are cache hits); the rest are fresh PLA
surrogates, distinct per request, that compile and write the cache.

A run is a series of rounds.  Each round replays one fixed schedule: an
open-loop block of Poisson arrivals at a fixed offered rate, each request
timed from when it was due, then a closed-loop block with two connections.
With two CPUs or more, the server and the generator are pinned to one CPU
each.  The schedule is fixed; ``--seed`` draws the fresh circuits.  Times
are reported in reference seconds (see ``common.REFERENCE_S``), against
probes of the server's CPU taken while it is idle (:class:`SpeedTrace`).
The traced run replays the first round's open-loop sequence through
``PlimServer.handle`` in-process, once untraced and once with spans.
"""

from __future__ import annotations

import asyncio
import base64
import bisect
import io
import itertools
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time

from common import (
    ROOT,
    SETUP_REPEATS,
    SRC,
    Probe,
    describe_timing,
    fresh_start_s,
    metric,
    normalized,
    percentile,
    pin,
    reference_s,
    vm_hwm_mb,
)
from compile_workloads import aiger_bytes, check_program
from tracing import REQUEST_ID, Tracer, format_table, patched

import repro.core.pipeline as pipeline_module
import repro.serve.app as app_module
import repro.serve.protocol as protocol_module
from repro.circuits.random_control import make_pla_surrogate
from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.cache import SynthesisCache
from repro.core.compiler import PlimCompiler
from repro.core.pipeline import compile_mig
from repro.mig.context import AnalysisContext
from repro.mig.graph import Mig
from repro.mig.io_aiger import read_aiger
from repro.plim.program import Program
from repro.serve.app import PlimServer, ServerConfig
from repro.serve.protocol import Request, canonical_json

HOT_SCALES = ("ci", "default")
#: one request in this many is a fresh circuit (a cache miss)
MISS_EVERY = 6
#: input AIG node range of the fresh circuits, sampled in strata
MISS_GATES = (300, 1500)
_MISS_STRATA = 8
#: input AIG nodes per output of the surrogate family below (calibrated)
_GATES_PER_OUTPUT = 34.5
#: connections the generator keeps in flight
CONNECTIONS = 2
#: closed-loop capacity measured when the benchmark was written (2-core
#: x86-64 host, server and generator pinned); it sizes the rounds, it is
#: never a result
MEASURED_CAPACITY_RPS = 33.0
#: open-loop offered rate, fixed at about a quarter of that capacity.  At
#: half of it, queueing doubled the open-loop latency whenever the shared
#: host slowed down by a third.
OPEN_RATE_RPS = 8.0
#: rounds (an open-loop block, then a closed-loop block) every run makes
MIN_ROUNDS = 2
#: a run whose generator ran this late (p95) is invalid
LAG_LIMIT_MS = 25.0
#: the arrival schedule of a round (hot-set order, fresh-circuit sizes and
#: positions, Poisson gaps) comes from this fixed seed, so every round of
#: every run replays the same schedule and --seed varies the fresh
#: circuits' logic and the check patterns.  Drawn per seed, the arrival
#: order alone moved the open-loop p95 by 2x between runs at equal
#: throughput.
SCHEDULE_SEED = 0x5C4ED
#: a closed-loop block runs in chunks of this many requests, with the
#: server's CPU probed between chunks (see SpeedTrace)
CHUNK = 8
#: rounds of reference work in one probe of the server's CPU (about 10 ms)
SERVER_PROBE_ROUNDS = 2
#: the open loop probes the server's CPU when nothing is in flight and the
#: next request is due no sooner than this
PROBE_GAP_S = 0.04
#: half-width of the time window whose probes time a request or a chunk
TRACE_WINDOW_S = 0.25


class InvalidRun(Exception):
    """The load generator fell behind its own schedule."""


# ----------------------------------------------------------------------
# payloads and the request sequence
# ----------------------------------------------------------------------


def _body(data: bytes) -> bytes:
    return canonical_json(
        {"format": "aig", "circuit_b64": base64.b64encode(data).decode("ascii")}
    )


def _http_post(body: bytes) -> bytes:
    head = (
        "POST /compile HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


class Payload:
    """One circuit as the server receives it."""

    __slots__ = ("label", "data", "body", "wire", "gates", "hot")

    def __init__(self, label: str, data: bytes, gates: int, hot: bool):
        self.label = label
        self.data = data
        self.body = _body(data)
        self.wire = _http_post(self.body)
        self.gates = gates
        self.hot = hot


def _aiger_ands(data: bytes) -> int:
    """The AND count from a binary AIGER header (``aig M I L O A``)."""
    return int(data.split(b"\n", 1)[0].split()[5])


def _fresh_circuit(seed: int, index: int, target_gates: float) -> Payload:
    outputs = max(2, round(target_gates / _GATES_PER_OUTPUT))
    mig = make_pla_surrogate(
        f"fresh{index}", 32, outputs, 4, 3, 6, seed=seed * 1_000_003 + index
    )
    data = aiger_bytes(mig)
    return Payload(f"fresh{index}", data, _aiger_ands(data), False)


def make_schedule(hot_size: int) -> tuple[list, list, list]:
    """One round's schedule, drawn from SCHEDULE_SEED: the open-loop block,
    the closed-loop block and the open block's Poisson gaps.  A block is a
    permutation of the hot set (indices) with one fresh-circuit slot (its
    target size, a float) at a drawn position in every run of
    MISS_EVERY - 1 hot requests; the sizes are drawn in strata."""
    rng = random.Random(SCHEDULE_SEED)
    blocks = []
    for _ in range(2):
        order = list(range(hot_size))
        rng.shuffle(order)
        misses = -(-hot_size // (MISS_EVERY - 1))
        low, high = MISS_GATES
        targets = []
        while len(targets) < misses:
            strata = list(range(_MISS_STRATA))
            rng.shuffle(strata)
            targets += [
                low + (high - low) * (stratum + rng.random()) / _MISS_STRATA
                for stratum in strata[: misses - len(targets)]
            ]
        block = []
        for start, target in zip(range(0, hot_size, MISS_EVERY - 1), targets):
            group = order[start:start + MISS_EVERY - 1]
            group.insert(rng.randrange(len(group) + 1), target)
            block += group
        blocks.append(block)
    return blocks[0], blocks[1], poisson_gaps(rng, len(blocks[0]), OPEN_RATE_RPS)


def make_payloads(seed: int, seconds: float) -> tuple[list, list, list, list]:
    """The hot set, each round's open-loop and closed-loop request
    sequences (the schedule, with fresh circuits whose logic ``seed`` draws
    in its fresh slots), and the open loop's gaps.  The rounds are as many
    as fill ``seconds`` at the offered rate and the measured capacity."""
    hot, seen = [], set()
    for scale in HOT_SCALES:
        for name in BENCHMARK_NAMES:
            data = aiger_bytes(build(name, scale))
            if data in seen:  # circuits with one size at both scales
                continue
            seen.add(data)
            hot.append(Payload(f"{name}@{scale}", data, _aiger_ands(data), True))
    open_block, closed_block, gaps = make_schedule(len(hot))
    round_s = len(open_block) / OPEN_RATE_RPS + len(closed_block) / MEASURED_CAPACITY_RPS
    rounds = max(MIN_ROUNDS, int(seconds // round_s))
    counter = itertools.count()

    def fill(block):
        return [
            hot[slot] if isinstance(slot, int) else _fresh_circuit(seed, next(counter), slot)
            for slot in block
        ]

    opens, closes = [], []
    for _ in range(rounds):
        opens.append(fill(open_block))
        closes.append(fill(closed_block))
    return hot, opens, closes, gaps


def poisson_gaps(rng: random.Random, count: int, rate: float) -> list:
    """Exponential inter-arrival gaps at ``rate``, one draw from each of
    ``count`` equal-probability strata, in seeded order."""
    strata = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(strata)
    return [-math.log(1.0 - u) / rate for u in strata]


# ----------------------------------------------------------------------
# the server subprocess and the HTTP client
# ----------------------------------------------------------------------


class ServerProcess:
    """``plimc serve --port 0`` in a subprocess; always stop() it."""

    def __init__(self, timeout_s: float = 60.0):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self.port = None
        try:
            pin(self.proc.pid, 1)
            ready, _, _ = select.select([self.proc.stderr], [], [], timeout_s)
            line = self.proc.stderr.readline().decode("utf-8", "replace") if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"plimc serve did not start: {line.strip()!r}")
            self.port = int(line.rsplit(":", 1)[1])
            deadline = time.monotonic() + timeout_s
            while asyncio.run(get_json(self.port, "/healthz")).get("status") != "ok":
                if time.monotonic() > deadline:
                    raise RuntimeError("plimc serve never became healthy")
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


def server_reference() -> float:
    """:func:`common.reference_s` on the server's CPU: this process moves
    there for it.  Call it only while the server is idle."""
    pin(0, 1)
    try:
        return reference_s(SERVER_PROBE_ROUNDS)
    finally:
        pin(0, 0)


class SpeedTrace:
    """The server CPU's reference-work times, probed while the server is
    idle, by ``time.monotonic``.  A separate process running the reference
    work on that CPU, or at idle priority beside the server, did not track
    the server's speed; this process moving there between requests does
    (the same comparison as the compile workloads' Probe)."""

    def __init__(self):
        self.times, self.values = [], []

    def probe(self) -> None:
        start = time.monotonic()
        value = server_reference()
        self.times.append((start + time.monotonic()) / 2)
        self.values.append(value)

    def normalized(self, start: float, end: float) -> float:
        """``end - start`` in reference seconds of the server's CPU: against
        the median probe within TRACE_WINDOW_S of [start, end], taking in at
        least the nearest probe on either side."""
        times = self.times
        lo = bisect.bisect_left(times, start - TRACE_WINDOW_S)
        hi = bisect.bisect_right(times, end + TRACE_WINDOW_S)
        lo = max(0, min(lo, bisect.bisect_left(times, start) - 1))
        hi = min(len(times), max(hi, bisect.bisect_right(times, end) + 1))
        return normalized(end - start, statistics.median(self.values[lo:hi]))


async def exchange(port: int, wire: bytes) -> tuple[int, bytes]:
    """Send one request, read the response to EOF (``Connection: close``).

    A broken connection or an unreadable response is status 0.
    """
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(wire)
            await writer.drain()
            data = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        head, _, body = data.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), body
    except (OSError, ValueError, IndexError):
        return 0, b""


async def get_json(port: int, path: str) -> dict:
    wire = f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode("ascii")
    status, body = await exchange(port, wire)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


class Sample:
    """One measured request."""

    __slots__ = ("index", "payload", "status", "body", "latency_s", "sent", "done")

    def __init__(self, index, payload, status, body, latency_s, sent, done):
        self.index = index  # position in the phase's request sequence
        self.payload = payload
        self.status = status
        self.body = body
        self.latency_s = latency_s
        self.sent = sent
        self.done = done

    @property
    def service_s(self) -> float:
        return self.done - self.sent


async def open_loop(port: int, sequence: list, gaps: list, trace: SpeedTrace) -> tuple[list, list, int]:
    """Poisson arrivals; returns (samples, generator lag per request, number
    of requests that waited for a free connection).  While nothing is in
    flight and the next request is not due for PROBE_GAP_S, ``trace``
    probes the server's CPU."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(CONNECTIONS)
    samples, lags, tasks = [], [], []
    waited = busy = 0

    async def send(index, payload, due):
        nonlocal busy
        try:
            sent = loop.time()
            status, body = await exchange(port, payload.wire)
            done = loop.time()
            samples.append(Sample(index, payload, status, body, done - due, sent, done))
        finally:
            busy -= 1
            slots.release()

    due = loop.time() + 0.05
    free = due
    for index, (payload, gap) in enumerate(zip(sequence, gaps)):
        due += gap
        while busy and due - loop.time() > PROBE_GAP_S:
            await asyncio.sleep(0.005)
        if busy == 0 and due - loop.time() > PROBE_GAP_S:
            trace.probe()
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        # how late the generator itself dispatched: measured from when it
        # was due or from when the generator got free, whichever is later
        lags.append(max(0.0, loop.time() - max(due, free)))
        if slots.locked():
            waited += 1
        await slots.acquire()
        busy += 1
        free = loop.time()
        tasks.append(loop.create_task(send(index, payload, due)))
    await asyncio.gather(*tasks)
    return samples, lags, waited


async def closed_loop(port: int, sequence: list) -> tuple[list, float]:
    """CONNECTIONS clients, each sending its next request on completion,
    until ``sequence`` is used up."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    pending = iter(enumerate(sequence))
    samples = []

    async def client():
        for index, payload in pending:
            sent = loop.time()
            status, body = await exchange(port, payload.wire)
            done = loop.time()
            samples.append(Sample(index, payload, status, body, done - sent, sent, done))

    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    return samples, loop.time() - start


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def _check_record(payload: Payload, body: bytes, rng) -> str | None:
    """None if the body's program computes the payload's circuit."""
    record = json.loads(body)
    source = read_aiger(io.BytesIO(payload.data))
    program = Program.from_text(record["program"])
    if not check_program(source, program, rng):
        return f"{payload.label}: served program fails the independent check"
    return None


def check_samples(warm: dict, samples: list, rng) -> list[str]:
    """Every 200 body verified; every hit byte-identical to the miss body
    that produced it (``cached`` flipped); every request answered 200."""
    problems = []
    for payload, body in warm.items():
        problem = _check_record(payload, body, rng)
        if problem:
            problems.append(problem)
    for sample in samples:
        payload = sample.payload
        if sample.status != 200:
            problems.append(f"{payload.label}: HTTP {sample.status}")
        elif payload.hot:
            expected = warm[payload].replace(b'"cached":false', b'"cached":true', 1)
            if sample.body != expected:
                problems.append(f"{payload.label}: hit body differs from its miss body")
        else:
            problem = _check_record(payload, sample.body, rng)
            if problem:
                problems.append(problem)
    return problems


def same_path_mismatches(hot: list, warm: dict) -> list[str]:
    """ci-scale hot circuits whose served program differs from compile_mig."""
    mismatches = []
    for payload in hot:
        if not payload.label.endswith("@ci"):
            continue
        shipped = compile_mig(read_aiger(io.BytesIO(payload.data))).program.to_text()
        if json.loads(warm[payload])["program"] != shipped:
            mismatches.append(payload.label)
    return mismatches


def _record_seconds(body: bytes) -> float:
    record = json.loads(body)
    return sum(
        record[k]
        for k in ("rewrite_seconds", "schedule_seconds", "translate_seconds", "verify_seconds")
    )


# ----------------------------------------------------------------------
# in-process replay (traced run)
# ----------------------------------------------------------------------


def _request(payload: Payload) -> Request:
    return Request("POST", "/compile", payload.body)


async def _replay(app: PlimServer, hot: list, sequence: list) -> list:
    """Warm ``app`` with the hot set, then send ``sequence`` through
    ``app.handle`` with CONNECTIONS concurrent clients; returns latencies."""
    for payload in hot:
        response = await app.handle(_request(payload))
        if response.status != 200:
            raise RuntimeError(f"in-process warm-up of {payload.label}: {response.status}")
    return await _replay_sequence(app, sequence)


async def _replay_sequence(app: PlimServer, sequence: list) -> list:
    pending = iter(enumerate(sequence))
    latencies = []

    async def client():
        for index, payload in pending:
            REQUEST_ID.set(index)
            start = time.perf_counter()
            response = await app.handle(_request(payload))
            latencies.append(time.perf_counter() - start)
            if response.status != 200:
                raise RuntimeError(f"in-process replay of {payload.label}: {response.status}")

    await asyncio.gather(*(asyncio.create_task(client()) for _ in range(CONNECTIONS)))
    return latencies


def traced_replay(hot: list, sequence: list) -> tuple:
    """Untraced then traced in-process replays on fresh servers; returns
    (tracer, traced wall s, untraced p50 s, traced p50 s, rewritten MIGs)."""
    untraced = asyncio.run(_replay(PlimServer(ServerConfig()), hot, sequence))
    tracer = Tracer()
    rewritten = []

    def on_parse(args, call_args, mig):
        args["gates"] = mig.num_gates

    def on_rewrite(args, call_args, mig):
        args["gates_in"] = call_args[0].num_gates
        args["gates_out"] = mig.num_gates
        rewritten.append(mig)

    def on_compile(args, call_args, program):
        args.update(call_args[0].last_timings)
        args["instructions"] = program.num_instructions

    app = PlimServer(ServerConfig())
    asyncio.run(_replay(app, hot, []))
    start = time.perf_counter()
    with patched(tracer, protocol_module, "parse_circuit", "protocol.parse_circuit", on_parse), \
            patched(tracer, Mig, "fingerprint", "graph.fingerprint"), \
            patched(tracer, SynthesisCache, "get_compilation", "cache.get_compilation"), \
            patched(tracer, app_module, "serve_compile_task", "worker.serve_compile_task"), \
            patched(tracer, pipeline_module, "rewrite_for_plim", "rewriting.rewrite_for_plim", on_rewrite), \
            patched(tracer, PlimCompiler, "compile", "compiler.compile", on_compile):
        traced = asyncio.run(_replay_sequence(app, sequence))
    wall = time.perf_counter() - start
    return tracer, wall, statistics.median(untraced), statistics.median(traced), rewritten


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, trace_path) -> dict:
    # Every time is in reference seconds (see common.REFERENCE_S): set-up
    # steps in this process against the reference work on its CPU, and
    # requests against the reference work on the server's CPU (SpeedTrace).
    pin(0, 0)
    import_s = fresh_start_s(__name__)

    # --- set-up, part 1: payload generation, repeated
    generation_s, probe = [], Probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        hot, opens, closes, gaps = make_payloads(seed, seconds)
        generation_s.append(probe.normalized(time.perf_counter() - start))

    # --- set-up, part 2: SETUP_REPEATS server starts, one after the other;
    # the last server is warmed with the hot set and serves the rounds
    speed, spans, server = SpeedTrace(), [], None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            speed.probe()
            start = time.monotonic()
            server = ServerProcess()
            spans.append((start, time.monotonic()))
            speed.probe()
        warm, warm_problems, warm_spans = asyncio.run(_warm(server.port, hot, speed))

        # --- measured rounds: each replays the open-loop block, then the
        # closed-loop block, of one fixed schedule
        before = asyncio.run(_stats(server.port))
        opened, chunks, lags, waited = [], [], [], 0
        for open_sequence, closed_sequence in zip(opens, closes):
            block, block_lags, block_waited = asyncio.run(
                open_loop(server.port, open_sequence, gaps, speed)
            )
            opened += block
            lags += block_lags
            waited += block_waited
            for first in range(0, len(closed_sequence), CHUNK):
                speed.probe()
                chunk = closed_sequence[first:first + CHUNK]
                chunks.append(asyncio.run(closed_loop(server.port, chunk))[0])
        speed.probe()
        after = asyncio.run(_stats(server.port))
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    start_s = [speed.normalized(*span) for span in spans]
    warm_s = sum(speed.normalized(*span) for span in warm_spans.values())
    setup_s = import_s + min(generation_s) + min(start_s) + warm_s

    lag_p95_ms = percentile(lags, 95) * 1e3
    if lag_p95_ms > LAG_LIMIT_MS:
        raise InvalidRun(
            f"load generator ran {lag_p95_ms:.1f} ms late at p95 "
            f"(limit {LAG_LIMIT_MS} ms); latencies not reported"
        )

    # --- outside the measured rounds: checks
    samples = opened + [s for chunk in chunks for s in chunk]
    check_rng = random.Random(seed ^ 0x5EED)
    failures = warm_problems + check_samples(warm, samples, check_rng)
    errors = [
        f"served program differs from compile_mig for {label}"
        for label in same_path_mismatches(hot, warm)
    ]

    # Latency pools the open-loop requests of every round, each timed from
    # when it was due to its answer.  Throughput and gates_per_s pool the
    # closed-loop chunks, each timed from its first send to its last answer.
    open_ms = [speed.normalized(s.done - s.latency_s, s.done) * 1e3 for s in opened]
    chunk_s = [speed.normalized(min(s.sent for s in c), max(s.done for s in c)) for c in chunks]
    ok_closed = [s for chunk in chunks for s in chunk if s.status == 200]
    e2e = {
        "setup_s": metric(setup_s, "s"),
        "gates_per_s": metric(sum(s.payload.gates for s in ok_closed) / sum(chunk_s), "gates/s"),
        "num_instructions": metric(
            sum(json.loads(b)["num_instructions"] for b in warm.values()), "count"
        ),
        "num_rrams": metric(sum(json.loads(b)["num_rrams"] for b in warm.values()), "count"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
        "latency_p50_ms": metric(statistics.median(open_ms), "ms"),
        "latency_p95_ms": metric(percentile(open_ms, 95), "ms"),
        "throughput_rps": metric(len(ok_closed) / sum(chunk_s), "1/s"),
    }
    wall_ms = [s.latency_s * 1e3 for s in opened]
    closed_wall_s = sum(max(s.done for s in c) - min(s.sent for s in c) for c in chunks)
    hits_ms = [s.latency_s * 1e3 for s in opened if s.payload.hot]
    miss_ms = [s.latency_s * 1e3 for s in opened if not s.payload.hot]
    miss_samples = [s for s in samples if not s.payload.hot and s.status == 200]
    compile_s = [_record_seconds(s.body) for s in miss_samples]
    overhead_ms = [(s.service_s - c) * 1e3 for s, c in zip(miss_samples, compile_s)]
    report = [
        f"serve_mix: hot set {len(hot)} circuits ({'+'.join(HOT_SCALES)} scale), "
        f"{len(opens)} rounds of {len(opens[0])} open-loop + {len(closes[0])} closed-loop "
        f"requests, 1 in {MISS_EVERY} fresh, seed {seed}",
        f"  set-up {setup_s:.3f} ref s (start+imports {import_s:.3f}, payloads "
        f"{min(generation_s):.3f}, server start {min(start_s):.3f}: best of {SETUP_REPEATS}; "
        f"hot-set warm-up {warm_s:.3f})",
        f"  open loop at {OPEN_RATE_RPS:g}/s offered, latency from due, reference ms: "
        + describe_timing(open_ms),
        f"    wall ms: {describe_timing(wall_ms)}",
        f"    hits, wall ms: {describe_timing(hits_ms)}",
        f"    misses, wall ms: {describe_timing(miss_ms)}",
        f"    generator lag p95 {lag_p95_ms:.2f} ms (limit {LAG_LIMIT_MS:g}); "
        f"{waited} requests waited for a free connection",
        f"  closed loop, {CONNECTIONS} connections, chunks of {CHUNK}: "
        f"{len(ok_closed) / closed_wall_s:.2f} req/s wall, "
        f"{e2e['throughput_rps']['value']:.2f} req/s in reference time",
        f"  server peak RSS {rss_mb:.1f} MiB; {len(speed.times)} probes of the server's CPU",
    ]

    counters_before, counters_after = before[0]["counters"], after[0]["counters"]
    cache_before, cache_after = before[1]["counters"], after[1]["counters"]
    cache_hits = cache_after["hits"] - cache_before["hits"]
    cache_misses = cache_after["misses"] - cache_before["misses"]
    per_layer = {
        "cache.hits": metric(cache_hits, "count"),
        "cache.misses": metric(cache_misses, "count"),
        "cache.hit_ratio": metric(
            cache_hits / (cache_hits + cache_misses) if cache_hits + cache_misses else 0.0,
            "ratio",
        ),
        **{
            f"serve.{name}": metric(counters_after[name] - counters_before[name], "count")
            for name in ("compiles", "cache_answers")
        },
        "serve.hit_p50_ms": metric(statistics.median(hits_ms), "ms"),
        "serve.miss_p50_ms": metric(statistics.median(miss_ms), "ms"),
        "serve.compile_s": metric(statistics.median(compile_s) if compile_s else 0.0, "s"),
        "serve.overhead_ms": metric(statistics.median(overhead_ms) if overhead_ms else 0.0, "ms"),
        "loadgen.lag_p95_ms": metric(lag_p95_ms, "ms"),
        "loadgen.conn_waits": metric(waited, "count"),
    }
    layers = {}
    if trace:
        tracer, wall, untraced_p50, traced_p50, rewritten = traced_replay(hot, opens[0])
        per_layer.update(_replay_metrics(tracer, rewritten, untraced_p50, traced_p50))
        layers = {"wall_s": wall, "self": tracer.self_times()}
        tracer.write(trace_path)
        report.append(format_table("serve_mix in-process traced replay", layers["self"], wall))
        report.append(
            f"  tracing overhead: {per_layer['trace.overhead_pct']['value']:+.2f}% "
            f"replay latency p50 (traced {traced_p50 * 1e3:.2f} ms vs untraced "
            f"{untraced_p50 * 1e3:.2f} ms); trace written to {trace_path}"
        )
    return {
        "e2e": e2e,
        "per_layer": per_layer,
        "layers": layers,
        "attempted": len(samples),
        "failures": failures,
        "errors": errors,
        "report": report,
    }


async def _warm(port: int, hot: list, speed: SpeedTrace) -> tuple[dict, list, dict]:
    """Compile the hot set once, probing the server's CPU after each
    request; returns the miss bodies by payload, the problems, and each
    request's (start, end) in ``time.monotonic``."""
    warm, problems, spans = {}, [], {}
    for payload in hot:
        start = time.monotonic()
        status, body = await exchange(port, payload.wire)
        spans[payload] = (start, time.monotonic())
        speed.probe()
        if status != 200 or b'"cached":false' not in body:
            problems.append(f"{payload.label}: warm-up answered {status}")
        warm[payload] = body
    return warm, problems, spans


async def _stats(port: int) -> tuple[dict, dict]:
    return await get_json(port, "/stats"), await get_json(port, "/cache/stats")


def _replay_metrics(tracer: Tracer, rewritten: list, untraced_p50: float, traced_p50: float) -> dict:
    busy = tracer.busy
    parse_s = busy("protocol.parse_circuit")
    rewrite_in = tracer.arg_sum("rewriting.rewrite_for_plim", "gates_in")
    translate_s = tracer.arg_sum("compiler.compile", "translate_seconds")
    return {
        "io.parse_s": metric(parse_s, "s"),
        "io.nodes_per_s": metric(tracer.arg_sum("protocol.parse_circuit", "gates") / parse_s, "nodes/s"),
        "rewriting.busy_s": metric(busy("rewriting.rewrite_for_plim"), "s"),
        "rewriting.gates_ratio": metric(
            tracer.arg_sum("rewriting.rewrite_for_plim", "gates_out") / rewrite_in
            if rewrite_in else 0.0,
            "ratio",
        ),
        "rewriting.depth_out": metric(sum(AnalysisContext(m).depth for m in rewritten), "levels"),
        "schedule.busy_s": metric(tracer.arg_sum("compiler.compile", "schedule_seconds"), "s"),
        "translate.busy_s": metric(translate_s, "s"),
        "translate.instr_per_s": metric(
            tracer.arg_sum("compiler.compile", "instructions") / translate_s if translate_s else 0.0,
            "instr/s",
        ),
        "graph.fingerprint_s": metric(busy("graph.fingerprint"), "s"),
        "cache.lookup_s": metric(busy("cache.get_compilation"), "s"),
        "trace.overhead_pct": metric(100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%"),
    }
