"""Serving-layer throughput and dedup benches (``plimc serve``).

The server's pitch is that the shared :class:`~repro.core.cache
.SynthesisCache` plus in-flight dedup turn a request storm into a
handful of real compiles.  This bench measures that pitch on the mixed
registry workload, in-process (the protocol harness's client — no
sockets, so the numbers are compile economics, not TCP noise):

* **cold**: a fresh server answering 100 mixed requests (every registry
  circuit, cycled) — every distinct circuit compiles once, concurrent
  duplicates collapse; zero requests may shed or fail.  The leg also
  counts, per real compile, fingerprint computations, ``.mig`` writes
  and ``.mig`` parses on the event loop, which must be 1, 1 and 0: a
  miss computes each artifact once, and absorbing the compile's cache
  entries parses nothing.
* **warm**: the same 100 requests again on the now-hot cache — answered
  from the compilation cache without touching the compiler, and through
  the fingerprint memo without parsing the circuit.  The gates
  ``warm_speedup >= 3`` and ``warm.parses == 0`` (a count, not a time)
  are what make the cache worth serving over.
* **dedup**: 20 identical concurrent submissions — exactly one compile,
  19 collapsed, byte-identical bodies.
* **workers**: the cold workload at 1..4 compile slots (thread-level
  concurrency; pure-Python compiles are GIL-bound, so this leg records
  the scaling reality rather than gating on it).

Run directly (``python benchmarks/bench_serve.py [--scale ci]``) to
emit ``BENCH_serve.json``; exits nonzero when a request drops, a cold
compile repeats an artifact, the warm speedup misses 3x, a warm request
parses, or dedup fails to collapse — the CI gates.
"""

try:
    import pytest
except ModuleNotFoundError:  # standalone snapshot mode needs no pytest
    pytest = None

import asyncio
import contextlib
import io
import threading

import repro.mig.algebra as algebra
import repro.mig.io_mig as io_mig
from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.mig.io_mig import write_mig
from repro.serve import protocol
from repro.serve.app import PlimServer, ServerConfig
from repro.serve.protocol import Request, canonical_json

_REQUESTS = 100
_DEDUP_BURST = 20


def _mig_texts(scale: str, names=None) -> list:
    texts = []
    for name in names or BENCHMARK_NAMES:
        buf = io.StringIO()
        write_mig(build(name, scale), buf)
        texts.append(buf.getvalue())
    return texts


def _compile_request(text: str) -> Request:
    return Request(
        "POST", "/compile", canonical_json({"circuit": text, "format": "mig"})
    )


async def _fire(app: PlimServer, requests: list) -> list:
    from concurrent.futures import ThreadPoolExecutor

    asyncio.get_running_loop().set_default_executor(
        ThreadPoolExecutor(max_workers=32)
    )
    return await asyncio.gather(*[app.handle(r) for r in requests])


async def _fire_counting_parses(app: PlimServer, requests: list) -> tuple:
    """:func:`_fire`, also counting ``protocol.parse_circuit`` calls."""
    calls = []
    real = protocol.parse_circuit

    def counting(payload):
        calls.append(1)
        return real(payload)

    protocol.parse_circuit = counting
    try:
        responses = await _fire(app, requests)
    finally:
        protocol.parse_circuit = real
    return responses, len(calls)


@contextlib.contextmanager
def _counting_artifacts():
    """Count fingerprint computations (``structural_keys`` is the
    fingerprint's traversal, and a memoized fingerprint skips it),
    ``.mig`` writes, and ``.mig`` parses on the calling thread — the
    event loop's — while the block runs."""
    counts = {"fingerprints": 0, "mig_writes": 0, "loop_mig_reads": 0}
    lock = threading.Lock()  # compiles run on several executor threads
    loop_thread = threading.current_thread()
    real = (algebra.structural_keys, io_mig._write, io_mig._read)

    def bump(counter):
        with lock:
            counts[counter] += 1

    def keys(mig):
        bump("fingerprints")
        return real[0](mig)

    def write(mig, out):
        bump("mig_writes")
        return real[1](mig, out)

    def read(lines):
        if threading.current_thread() is loop_thread:
            bump("loop_mig_reads")
        return real[2](lines)

    algebra.structural_keys, io_mig._write, io_mig._read = keys, write, read
    try:
        yield counts
    finally:
        algebra.structural_keys, io_mig._write, io_mig._read = real


def _mixed_workload(texts: list, total: int) -> list:
    return [_compile_request(texts[i % len(texts)]) for i in range(total)]


def _make_app(workers: int = 2) -> PlimServer:
    # queue_limit above the workload size: this bench measures
    # throughput, not shedding (shedding has its own tier-1 tests)
    return PlimServer(
        ServerConfig(workers=workers, queue_limit=4 * _REQUESTS)
    )


if pytest is not None:

    def test_served_workload_matches_direct_pipeline(scale):
        """The server answers the registry workload with the library's
        exact results — and zero drops."""
        from repro.core.pipeline import compile_mig
        from repro.serve.protocol import parse_circuit
        from repro.serve.worker import build_record

        texts = _mig_texts(scale, BENCHMARK_NAMES[:4])
        app = _make_app()
        responses = asyncio.run(
            _fire(app, [_compile_request(t) for t in texts])
        )
        assert [r.status for r in responses] == [200] * len(texts)
        for text, response in zip(texts, responses):
            mig = parse_circuit({"circuit": text, "format": "mig"})
            direct = build_record(mig.name, compile_mig(mig))
            served = response.json()
            assert served["num_instructions"] == direct["num_instructions"]
            assert served["program"] == direct["program"]

    def test_identical_burst_collapses_to_one_compile(scale):
        texts = _mig_texts(scale, BENCHMARK_NAMES[:1])
        app = _make_app()
        burst = [_compile_request(texts[0]) for _ in range(8)]
        responses = asyncio.run(_fire(app, burst))
        assert [r.status for r in responses] == [200] * 8
        assert app.counters["compiles"] == 1
        assert len({r.body for r in responses}) == 1


# ----------------------------------------------------------------------
# standalone mode: machine-readable perf trajectory (BENCH_serve.json)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    """Measure served req/s cold vs warm, the dedup collapse ratio and
    worker scaling; write BENCH_serve.json and gate on the contracts."""
    import os
    import time

    import _common

    parser = _common.snapshot_parser(main.__doc__, __file__, "BENCH_serve.json")
    parser.add_argument("--requests", type=int, default=_REQUESTS)
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=3.0,
        help="fail (exit 1) when the warm workload is not at least this "
        "many times faster than cold",
    )
    args = parser.parse_args(argv)

    texts = _mig_texts(args.scale)
    start = time.perf_counter()

    # cold + warm: same app, same 100 mixed requests, twice
    app = _make_app()
    workload = _mixed_workload(texts, args.requests)
    with _counting_artifacts() as artifacts:
        t0 = time.perf_counter()
        cold = asyncio.run(_fire(app, workload))
        cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm, warm_parses = asyncio.run(
        _fire_counting_parses(app, _mixed_workload(texts, args.requests))
    )
    warm_s = time.perf_counter() - t0
    cold_ok = [r.status for r in cold] == [200] * args.requests
    warm_ok = [r.status for r in warm] == [200] * args.requests
    warm_speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    compiles = app.counters["compiles"]
    once_per_compile = (
        compiles > 0
        and artifacts["fingerprints"] == compiles
        and artifacts["mig_writes"] == compiles
        and artifacts["loop_mig_reads"] == 0
    )

    # dedup burst: 20 identical concurrent → one compile
    dedup_app = _make_app()
    burst = [_compile_request(texts[0]) for _ in range(_DEDUP_BURST)]
    t0 = time.perf_counter()
    burst_responses = asyncio.run(_fire(dedup_app, burst))
    dedup_s = time.perf_counter() - t0
    burst_ok = [r.status for r in burst_responses] == [200] * _DEDUP_BURST
    burst_bodies = len({r.body for r in burst_responses})
    collapsed = dedup_app.dedup.collapsed
    dedup_compiles = dedup_app.counters["compiles"]

    # worker scaling: the cold workload at 1..4 compile slots
    scaling = []
    for workers in range(1, min(4, os.cpu_count() or 1) + 1):
        sweep_app = _make_app(workers=workers)
        t0 = time.perf_counter()
        responses = asyncio.run(
            _fire(sweep_app, _mixed_workload(texts, args.requests))
        )
        wall = time.perf_counter() - t0
        scaling.append(
            {
                "workers": workers,
                "seconds": round(wall, 4),
                "req_per_s": round(args.requests / wall, 1),
                "dropped": sum(1 for r in responses if r.status != 200),
            }
        )

    wall = time.perf_counter() - start
    _common.write_snapshot(
        args.output,
        "serve",
        [{"circuit": name} for name in BENCHMARK_NAMES],
        wall,
        scale=args.scale,
        requests=args.requests,
        cold={
            "seconds": round(cold_s, 4),
            "req_per_s": round(args.requests / cold_s, 1),
            "compiles": compiles,
            "dropped": sum(1 for r in cold if r.status != 200),
            **artifacts,
        },
        warm={
            "seconds": round(warm_s, 4),
            "req_per_s": round(args.requests / warm_s, 1),
            "dropped": sum(1 for r in warm if r.status != 200),
            "parses": warm_parses,
        },
        warm_speedup=round(warm_speedup, 2),
        dedup={
            "burst": _DEDUP_BURST,
            "seconds": round(dedup_s, 4),
            "compiles": dedup_compiles,
            "collapsed": collapsed,
            "collapse_ratio": round(collapsed / _DEDUP_BURST, 3),
            "distinct_bodies": burst_bodies,
        },
        scaling=scaling,
    )
    ok = (
        cold_ok
        and once_per_compile
        and warm_ok
        and burst_ok
        and warm_speedup >= args.min_warm_speedup
        and warm_parses == 0
        and dedup_compiles == 1
        and collapsed == _DEDUP_BURST - 1
        and burst_bodies == 1
        and all(leg["dropped"] == 0 for leg in scaling)
    )
    if not ok:
        print(
            f"FAIL: cold_ok={cold_ok} warm_ok={warm_ok} burst_ok={burst_ok} "
            f"cold compiles={compiles} artifacts={artifacts} "
            f"warm_speedup={warm_speedup:.2f}x "
            f"(min {args.min_warm_speedup}x), warm parses={warm_parses}, "
            f"dedup compiles={dedup_compiles} "
            f"collapsed={collapsed} bodies={burst_bodies}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
