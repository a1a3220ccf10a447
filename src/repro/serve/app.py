"""The ``plimc serve`` application: routing, admission, dedup, jobs.

:class:`PlimServer` is the transport-independent core — the http layer
and the tier-1 in-process test harness both drive the same
``await app.handle(Request) -> Response`` entry point, so every
protocol behavior (including the fault, shed and drain paths) is testable
without a socket.

Execution model
---------------
The event loop owns all shared state: the
:class:`~repro.core.cache.SynthesisCache`, the dedup table, the
admission counter.  Compiles run off-loop — on an executor thread
(default) or a supervised worker process (with a per-request deadline,
or ``pooled=True``, which buys crash isolation) — and *never* see the
live cache: each request or job works
on its own :meth:`~repro.core.cache.SynthesisCache.view`, whose fresh
entries the event loop absorbs afterwards.  One request = one task on
the :mod:`repro.core.resilience` engine with a per-class
:class:`~repro.core.resilience.TaskPolicy` (``interactive``: no retries,
fail fast; ``batch``: one retry), so a crashed or hung worker becomes a
structured 502/504 — never a wedged connection.

Admission is a bounded counter, not a queue: past ``queue_limit``
concurrent requests the server sheds with ``429`` + ``Retry-After``
immediately (clients retry; the cache+dedup make retries cheap).  A
draining server (SIGTERM) answers new work with ``503`` while in-flight
requests and jobs run to completion — :meth:`PlimServer.drained` is the
await-point the http layer holds the process open on.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.batch import parallel_map
from repro.core.cache import SynthesisCache
from repro.core.resilience import TaskFailure, TaskPolicy
from repro.errors import ReproError
from repro.mig.graph import Mig
from repro.serve import protocol
from repro.serve.dedup import DedupTable
from repro.serve.jobs import JobRegistry
from repro.serve.protocol import (
    ProtocolError,
    Request,
    Response,
    canonical_json,
    error_response,
)
from repro.serve.worker import request_option_sets, serve_compile_task

#: exception families a task may legitimately raise for bad *input*
#: (answered 422); anything else is a server-side 500
_CLIENT_ERROR_TYPES = frozenset(
    {
        "ReproError",
        "MigError",
        "ParseError",
        "CompilationError",
        "MachineError",
        "AllocationError",
        "VerificationError",
        "BenchmarkError",
    }
)

#: seconds a shed client is told to wait (``Retry-After`` on a 429)
RETRY_AFTER_S = 1.0
#: seconds between attempts of a retried batch-class compile
RETRY_BACKOFF_S = 0.05
#: retries of a failed batch-class compile (interactive ones get none)
BATCH_RETRIES = 1

#: most circuit keys the fingerprint memo keeps — about 1 MiB of 64-character
#: keys and fingerprints; a constant because only one value is ever in use
FINGERPRINT_MEMO_CAPACITY = 4096

#: job kinds → allowed params (validated before a job is created)
_JOB_PARAMS = {
    "pareto": {"effort", "max_points", "verify"},
    "cost-loop": {"effort", "max_iterations"},
}


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one :class:`PlimServer` instance.

    ``workers`` bounds *concurrent* compiles (an asyncio semaphore);
    ``queue_limit`` bounds requests in the system at once — admitted
    requests beyond ``workers`` wait for a slot, requests beyond
    ``queue_limit`` are shed with 429.  A ``request_timeout_s`` deadline
    routes every compile through a supervised worker process, the only
    thing that can kill a runaway compile (inline threads are
    uncancellable in CPython); ``pooled`` does so even without a
    deadline, for crash isolation.  ``read_timeout_s`` is the socket
    transport's deadline for receiving one full request (stalled
    clients get 408 instead of holding a connection task forever);
    ``max_finished_jobs`` caps how many done/failed job records the
    registry retains.  The request classes' task policies are built at
    construction, so a value the pool cannot run, such as an infinite
    ``request_timeout_s``, fails here rather than on the first request.
    """

    workers: int = 2
    pooled: bool = False
    queue_limit: int = 8
    request_timeout_s: Optional[float] = None
    job_timeout_s: Optional[float] = None
    read_timeout_s: Optional[float] = 10.0
    max_body_bytes: int = 4 * 1024 * 1024
    max_finished_jobs: int = 256
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {self.workers!r}")
        if self.queue_limit < 1:
            raise ReproError(
                f"queue_limit must be >= 1, got {self.queue_limit!r}"
            )
        if self.max_finished_jobs < 0:
            raise ReproError(
                f"max_finished_jobs must be >= 0, got {self.max_finished_jobs!r}"
            )
        for klass in ("interactive", "batch"):
            _task_policy(self, klass)


def _task_policy(config: ServerConfig, klass: str) -> TaskPolicy:
    """The request class's task policy (``on_error="skip"`` always:
    failures must come back as structured records, never pool
    exceptions)."""
    return TaskPolicy(
        timeout_s=config.request_timeout_s,
        retries=BATCH_RETRIES if klass == "batch" else 0,
        backoff=RETRY_BACKOFF_S,
        on_error="skip",
    )


class FingerprintMemo:
    """:func:`~repro.serve.protocol.circuit_key` → fingerprint, LRU-bounded.

    Parsing is deterministic, so the exact circuit bytes determine the
    fingerprint; remembering it lets a repeat request go straight to the
    compilation cache.  Filled only after a successful parse (errors are
    never stored) and touched only from the event loop.
    """

    def __init__(self, capacity: int = FINGERPRINT_MEMO_CAPACITY):
        self.capacity = capacity
        self._entries: OrderedDict[str, str] = OrderedDict()
        self.hits = 0
        self.evictions = 0

    def get(self, circuit: str) -> Optional[str]:
        fingerprint = self._entries.get(circuit)
        if fingerprint is not None:
            self._entries.move_to_end(circuit)
            self.hits += 1
        return fingerprint

    def put(self, circuit: str, fingerprint: str) -> None:
        self._entries[circuit] = fingerprint
        self._entries.move_to_end(circuit)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "evictions": self.evictions,
        }


def _check_job_params(params: dict) -> None:
    """Refuse job ``params`` the job could only fail on later (400).

    ``effort`` goes through the same
    :class:`~repro.core.rewriting.RewriteOptions` check as a compile's
    ``options``; the counts are non-negative integers (``max_points`` may
    be ``null``: no cap) and ``verify`` is a boolean.
    """
    from repro.core.rewriting import RewriteOptions

    try:
        RewriteOptions(effort=params.get("effort", 4))
    except ReproError as exc:
        raise ProtocolError(400, "bad-request", str(exc)) from None
    for name in ("max_iterations", "max_points"):
        value = params.get(name, 0)
        if value is None and name == "max_points":
            continue
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ProtocolError(
                400, "bad-request", f"{name!r} must be a non-negative integer"
            )
    if not isinstance(params.get("verify", False), bool):
        raise ProtocolError(400, "bad-request", "'verify' must be a boolean")


def _read_circuit(payload: dict) -> tuple:
    """Parse and fingerprint a request's circuit (one executor hop).

    Both calls are looked up when called, so a tracer that patches
    ``protocol.parse_circuit`` or ``Mig.fingerprint`` sees every call.
    """
    mig = protocol.parse_circuit(payload)
    return mig, mig.fingerprint()


class PlimServer:
    """The application object behind ``plimc serve`` (and the tests)."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        cache: Optional[SynthesisCache] = None,
    ):
        self.config = config or ServerConfig()
        if cache is not None:
            self.cache = cache
        else:
            self.cache = SynthesisCache(
                self.config.cache_dir, max_bytes=self.config.cache_max_bytes
            )
        self.jobs = JobRegistry(max_finished=self.config.max_finished_jobs)
        self.dedup = DedupTable()
        self.fingerprints = FingerprintMemo()
        self.counters = {
            "requests": 0,
            "compiles": 0,
            "cache_answers": 0,
            "collapsed": 0,
            "shed": 0,
            "failures": 0,
            "jobs": 0,
        }
        self._admitted = 0
        self._draining = False
        self._job_tasks: set = set()
        # the compile-slot semaphore is loop-bound; created lazily per
        # running loop so one app instance survives repeated asyncio.run
        # calls (the golden tests do exactly that)
        self._slots: Optional[asyncio.Semaphore] = None
        self._slots_loop = None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        """Answer one request; never raises (errors become responses)."""
        self.counters["requests"] += 1
        try:
            return await self._route(request)
        except ProtocolError as error:
            return error.response()
        except Exception as error:  # the router's last line of defense
            return error_response(
                500,
                "internal-error",
                f"{type(error).__name__}: {error}",
            )

    async def _route(self, request: Request) -> Response:
        if len(request.body) > self.config.max_body_bytes:
            raise ProtocolError(
                413,
                "payload-too-large",
                f"request body exceeds {self.config.max_body_bytes} bytes",
            )
        path, method = request.path.split("?", 1)[0], request.method.upper()
        if path == "/healthz":
            self._expect(method, "GET", path)
            return Response.ok({"status": "ok", "draining": self._draining})
        if path == "/compile":
            self._expect(method, "POST", path)
            return await self._compile(request)
        if path == "/jobs":
            if method == "POST":
                return await self._submit_job(request)
            self._expect(method, "GET", path)
            return Response.ok({"jobs": self.jobs.summaries()})
        if path.startswith("/jobs/"):
            self._expect(method, "GET", path)
            return self._job_status(path[len("/jobs/"):])
        if path == "/cache/stats":
            self._expect(method, "GET", path)
            return Response.ok(self.cache.stats_snapshot())
        if path == "/stats":
            self._expect(method, "GET", path)
            return Response.ok(self._server_stats())
        raise ProtocolError(404, "not-found", f"no such endpoint: {path}")

    @staticmethod
    def _expect(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise ProtocolError(
                405,
                "method-not-allowed",
                f"{path} supports {expected}, not {method}",
            )

    def _server_stats(self) -> dict:
        return {
            "counters": dict(self.counters),
            "admitted": self._admitted,
            "queue_limit": self.config.queue_limit,
            "workers": self.config.workers,
            "pooled": self.config.pooled,
            "draining": self._draining,
            "dedup": {
                "inflight": self.dedup.inflight(),
                "leaders": self.dedup.leaders,
                "collapsed": self.dedup.collapsed,
            },
            "fingerprint_memo": self.fingerprints.stats(),
            "jobs_active": self.jobs.active_count(),
        }

    # ------------------------------------------------------------------
    # POST /compile
    # ------------------------------------------------------------------

    async def _compile(self, request: Request) -> Response:
        payload = request.json()
        klass = protocol.request_class(payload)
        options = protocol.compile_options(payload)
        # everything up to the join runs synchronously (no await between
        # reading the payload and joining): an executor hop here lets a
        # fast leader resolve and vacate the key before later identical
        # requests join, splitting one burst into several compiles —
        # hence the raw-payload key.  Order: memo + cache → dedup →
        # compile; only a leader parses and fingerprints.  A key already
        # in flight skips the memo and follows its leader, so followers
        # still join before admission.
        key = protocol.dedup_key(payload, options)
        circuit = key.partition("|")[0]  # its protocol.circuit_key part
        if key not in self.dedup:
            answer = self._memo_answer(circuit, options)
            if answer is not None:
                return answer
        leader, future = self.dedup.join(key)
        if not leader:
            self.counters["collapsed"] += 1
            status, headers, body = await asyncio.shield(future)
            return Response(status, body, headers)
        # resolve unconditionally — a leader that leaves followers hanging
        # is worse than any error, so even a cancelled/crashed leader
        # publishes *something* to its dedup group (parse errors fan out
        # to followers exactly like compile errors)
        triple = None
        try:
            mig, fingerprint = await asyncio.to_thread(_read_circuit, payload)
            self.fingerprints.put(circuit, fingerprint)
            triple = await self._compile_leader(mig, fingerprint, options, klass)
        except ProtocolError as error:
            response = error.response()
            triple = (response.status, response.headers, response.body)
        except Exception as error:
            response = error_response(
                500, "internal-error", f"{type(error).__name__}: {error}"
            )
            triple = (response.status, response.headers, response.body)
        finally:
            if triple is None:
                response = error_response(
                    500, "internal-error", "compile leader aborted"
                )
                triple = (response.status, response.headers, response.body)
            self.dedup.resolve(key, triple)
        status, headers, body = triple
        return Response(status, body, headers)

    def _memo_answer(self, circuit: str, options: dict) -> Optional[Response]:
        """Answer a cache hit from the memoized fingerprint of the exact
        circuit bytes — no parse, no fingerprint, no executor hop.

        Admission applies as on the full path (503 while draining, 429 on
        a full queue).  ``None`` sends the request down the full path:
        the bytes are new, or the cache no longer holds (or never held)
        this circuit under these options.
        """
        fingerprint = self.fingerprints.get(circuit)
        if fingerprint is None:
            return None
        self._admit()
        try:
            ropts, copts = request_option_sets(options)
            hit = self.cache.get_compilation(fingerprint, ropts, copts)
        finally:
            self._release()
        if hit is None:
            return None
        self.counters["cache_answers"] += 1
        status, headers, body = self._success_triple(hit, cached=True)
        return Response(status, body, headers)

    async def _compile_leader(
        self, mig: Mig, fingerprint: str, options: dict, klass: str
    ) -> tuple:
        """Run the one real compile of a dedup group; returns a triple."""
        self._admit()
        try:
            ropts, copts = request_option_sets(options)
            hit = self.cache.get_compilation(fingerprint, ropts, copts)
            if hit is not None:
                self.counters["cache_answers"] += 1
                return self._success_triple(hit, cached=True)
            view = self.cache.view()
            async with self._compile_slot():
                task_payload = {
                    "mig": mig,
                    "name": mig.name,
                    "fingerprint": fingerprint,
                    "options": options,
                }
                outcome = (
                    await asyncio.to_thread(
                        parallel_map,
                        serve_compile_task,
                        [task_payload],
                        workers=1,
                        cache=view,
                        policy=_task_policy(self.config, klass),
                        force_pool=self.config.pooled,
                    )
                )[0]
            if isinstance(outcome, TaskFailure):
                self.counters["failures"] += 1
                return self._failure_triple(outcome)
            record, cached = outcome
            self.cache.absorb(view.export_fresh())
            self.counters["compiles" if not cached else "cache_answers"] += 1
            return self._success_triple(record, cached=cached)
        finally:
            self._release()

    @staticmethod
    def _success_triple(record: dict, *, cached: bool) -> tuple:
        body = canonical_json({**record, "cached": cached})
        return (200, (), body)

    @staticmethod
    def _failure_triple(failure: TaskFailure) -> tuple:
        """A :class:`TaskFailure` as the protocol's structured error."""
        detail = {"attempts": failure.attempts}
        if failure.kind == "timeout":
            response = error_response(
                504, "timeout", failure.message, **detail
            )
        elif failure.kind == "crash":
            response = error_response(
                502, "worker-crash", failure.message, **detail
            )
        elif failure.error_type in _CLIENT_ERROR_TYPES:
            response = error_response(
                422,
                "task-error",
                failure.message,
                error_type=failure.error_type,
                **detail,
            )
        else:
            response = error_response(
                500,
                "internal-error",
                failure.message,
                error_type=failure.error_type,
                **detail,
            )
        return (response.status, response.headers, response.body)

    # ------------------------------------------------------------------
    # admission / drain
    # ------------------------------------------------------------------

    def _admit(self) -> None:
        if self._draining:
            raise ProtocolError(
                503, "draining", "server is draining; no new work accepted"
            )
        if self._admitted >= self.config.queue_limit:
            self.counters["shed"] += 1
            raise ProtocolError(
                429,
                "queue-full",
                f"admission queue is full ({self.config.queue_limit} in flight)",
                headers=(("Retry-After", f"{RETRY_AFTER_S:g}"),),
                retry_after=RETRY_AFTER_S,
            )
        self._admitted += 1

    def _release(self) -> None:
        self._admitted -= 1

    def _compile_slot(self) -> asyncio.Semaphore:
        loop = asyncio.get_running_loop()
        if self._slots_loop is not loop:
            self._slots = asyncio.Semaphore(self.config.workers)
            self._slots_loop = loop
        return self._slots

    def begin_drain(self) -> None:
        """Stop admitting work; in-flight requests and jobs finish."""
        self._draining = True

    async def drained(self) -> None:
        """Await full quiescence (the SIGTERM handler holds on this)."""
        self.begin_drain()
        while self._admitted > 0 or self.jobs.active_count() > 0:
            await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    # jobs: POST /jobs, GET /jobs/<id>
    # ------------------------------------------------------------------

    async def _submit_job(self, request: Request) -> Response:
        payload = request.json()
        kind = payload.get("kind")
        if not isinstance(kind, str) or kind not in _JOB_PARAMS:
            raise ProtocolError(
                400,
                "bad-request",
                f"unknown job kind {kind!r}; expected one of "
                f"{sorted(_JOB_PARAMS)}",
            )
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError(400, "bad-request", "'params' must be an object")
        unknown = set(params) - _JOB_PARAMS[kind]
        if unknown:
            raise ProtocolError(
                400,
                "bad-request",
                f"unknown params for {kind!r} jobs: {sorted(unknown)}",
            )
        _check_job_params(params)
        if self._draining:
            raise ProtocolError(
                503, "draining", "server is draining; no new work accepted"
            )
        mig, fingerprint = await asyncio.to_thread(_read_circuit, payload)
        key = f"{kind}|{fingerprint}|{protocol.options_token(params)}"
        job, created = self.jobs.submit(kind, key)
        if created:
            self.counters["jobs"] += 1
            task = asyncio.get_running_loop().create_task(
                self._run_job(job.id, kind, mig, params)
            )
            self._job_tasks.add(task)
            task.add_done_callback(self._job_tasks.discard)
        else:
            self.counters["collapsed"] += 1
        return Response.ok(
            {"job_id": job.id, "state": self.jobs.get(job.id).state,
             "deduplicated": not created},
            status=202,
        )

    def _job_status(self, job_id: str) -> Response:
        snapshot = self.jobs.snapshot(job_id)
        if snapshot is None:
            raise ProtocolError(404, "not-found", f"no such job: {job_id}")
        return Response.ok(snapshot)

    async def _run_job(self, job_id: str, kind: str, mig: Mig, params: dict):
        self.jobs.start(job_id)
        view = self.cache.view()
        try:
            result = await asyncio.wait_for(
                asyncio.to_thread(self._job_body, job_id, kind, mig, params, view),
                timeout=self.config.job_timeout_s,
            )
            self.cache.absorb(view.export_fresh())
            self.jobs.finish(job_id, result)
        except asyncio.TimeoutError:
            self.jobs.fail(
                job_id,
                {
                    "code": "timeout",
                    "message": f"job exceeded {self.config.job_timeout_s}s",
                },
            )
        except ReproError as error:
            self.jobs.fail(
                job_id,
                {
                    "code": "task-error",
                    "message": str(error),
                    "error_type": type(error).__name__,
                },
            )
        except Exception as error:
            self.jobs.fail(
                job_id,
                {
                    "code": "internal-error",
                    "message": f"{type(error).__name__}: {error}",
                },
            )

    def _job_body(
        self, job_id: str, kind: str, mig: Mig, params: dict, cache: SynthesisCache
    ):
        """The blocking job work (runs on an executor thread, on the job's
        cache view — never the live cache)."""
        if kind == "pareto":
            from repro.core.pareto import pareto_sweep

            front = pareto_sweep(
                mig,
                workers=1,
                effort=params.get("effort", 4),
                max_points=params.get("max_points", 2),
                verify=params.get("verify", False),
                cache=cache,
                progress=lambda point: self.jobs.add_progress(
                    job_id, point.to_dict()
                ),
            )
            result = front.to_dict()
        else:  # cost-loop
            from repro.core.rewriting import compile_cost_loop

            loop_result = compile_cost_loop(
                mig,
                effort=params.get("effort", 2),
                max_iterations=params.get("max_iterations", 2),
                cache=cache,
                progress=lambda step: self.jobs.add_progress(
                    job_id,
                    {
                        "iteration": step.iteration,
                        "variant": step.variant,
                        "accepted": step.accepted,
                        "metrics": dict(step.metrics),
                    },
                ),
            )
            result = {
                "model": loop_result.model,
                "iterations": loop_result.iterations,
                "converged": loop_result.converged,
                "baseline": dict(loop_result.baseline),
                "final": dict(loop_result.final),
                "num_gates": loop_result.mig.num_gates,
                "num_instructions": loop_result.num_instructions,
                "num_rrams": loop_result.num_rrams,
            }
        return result
