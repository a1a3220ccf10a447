"""Fault-tolerant task execution: policies, crash recovery, fault injection.

Every parallel surface of the package — :func:`~repro.core.batch.compile_many`,
:func:`~repro.core.pareto.pareto_sweep`, ``run_table1``, ``plimc serve``,
the benchmark drivers — funnels through
:func:`~repro.core.batch.parallel_imap`, which runs this module's inline
loop or its :class:`_Supervisor` pool.  The engine replaces the old bare
``pool.map`` with *per-task supervision*, so one bad task no longer
aborts a whole sweep with a raw ``BrokenProcessPool`` traceback:

* **policies** — a :class:`TaskPolicy` declares per-task deadlines
  (``timeout_s``), retry counts with exponential ``backoff``, and what a
  *permanent* failure means: ``on_error="raise"`` (the default — behave
  like the old pool), ``"skip"`` (the failed slot becomes a structured
  :class:`TaskFailure` record, every other result survives), or
  ``"degrade"`` (one last unsupervised attempt inline in the driver
  process before recording the failure — recovers pool-environment
  failures at the cost of isolation).
* **crash recovery** — every worker process is supervised individually
  over its own pipe, so a worker killed mid-task (OOM killer,
  ``os._exit``, segfault) is *attributed to exactly the task it was
  running*; the worker is respawned and only that task is retried or
  recorded, while the rest of the pool keeps working.
* **deadlines** — a task past ``timeout_s`` has its worker killed (the
  only way to cancel running work in CPython) and respawned; the hung
  task is retried or recorded per policy.
* **determinism** — results are keyed by input index and reported in
  input order, so for a fixed fault pattern the output is identical for
  any worker count, exactly like the rest of the package.
* **fault injection** — a :class:`FaultPlan` pickled into the worker
  payloads can raise, sleep past a deadline, or ``os._exit`` the worker
  at chosen task indices and attempts, so all of the above is tested
  against *real* worker death, not mocks (see ``tests/test_resilience.py``).

Example — a crashing task under ``on_error="skip"`` costs exactly one slot:

    >>> from repro.core.resilience import TaskPolicy, TaskFailure
    >>> policy = TaskPolicy(on_error="skip")
    >>> policy.retries, policy.on_error
    (0, 'skip')
    >>> TaskPolicy(retries=-1)
    Traceback (most recent call last):
      ...
    repro.errors.ReproError: TaskPolicy.retries must be >= 0, got -1
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

from repro.errors import ReproError

__all__ = [
    "Fault",
    "FaultPlan",
    "TaskError",
    "TaskFailure",
    "TaskPolicy",
]

#: permanent-failure dispositions a :class:`TaskPolicy` may declare
ON_ERROR_MODES = ("raise", "skip", "degrade")

#: failure kinds a :class:`TaskFailure` reports
FAILURE_KINDS = ("error", "timeout", "crash")

#: exit code of an injected ``os._exit`` crash (recognizable in messages)
_INJECTED_EXIT_CODE = 13


# ----------------------------------------------------------------------
# policies and failure records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TaskPolicy:
    """How the pool treats one task's misbehavior.

    ``timeout_s`` is the per-*attempt* wall-clock deadline (``None`` = no
    deadline; deadlines are enforced by killing the worker, which is the
    only way to cancel running work in CPython, so they only apply on the
    pooled path — inline execution cannot be cancelled).  ``retries`` is
    how many times a failed task is re-run before the failure is
    permanent (``retries=2`` = up to 3 attempts); ``backoff`` seconds
    delay the n-th retry by ``backoff * 2**(n-1)`` without blocking other
    tasks.  ``on_error`` decides what a permanent failure does to the
    whole run — see the module docstring.

    Invalid values raise :class:`~repro.errors.ReproError` at
    construction, so a mistyped ``--timeout -1`` fails loudly at the CLI
    boundary instead of silently drifting through the plumbing.
    """

    timeout_s: Optional[float] = None
    retries: int = 0
    backoff: float = 0.5
    on_error: str = "raise"

    def __post_init__(self):
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ReproError(
                f"TaskPolicy.timeout_s must be positive (or None), got "
                f"{self.timeout_s!r}"
            )
        if not isinstance(self.retries, int) or self.retries < 0:
            raise ReproError(
                f"TaskPolicy.retries must be >= 0, got {self.retries!r}"
            )
        if self.backoff < 0:
            raise ReproError(
                f"TaskPolicy.backoff must be >= 0, got {self.backoff!r}"
            )
        if self.on_error not in ON_ERROR_MODES:
            raise ReproError(
                f"TaskPolicy.on_error must be one of {ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )

    def retry_delay(self, attempt: int) -> float:
        """Seconds to wait before re-running after failed attempt ``attempt``."""
        return self.backoff * (2 ** (attempt - 1)) if self.backoff else 0.0


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task's permanent failure.

    Under ``on_error="skip"``/``"degrade"`` these records take the failed
    task's slot in the (input-ordered) result list, so callers always see
    *where* something failed, with what, and after how many attempts —
    instead of one opaque pool exception that discards every result.
    """

    index: int
    #: "error" (the task raised), "timeout" (deadline exceeded, worker
    #: killed), or "crash" (the worker process died mid-task)
    kind: str
    message: str
    #: exception class name for ``kind="error"``, ``""`` otherwise
    error_type: str = ""
    attempts: int = 1

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "message": self.message,
            "error_type": self.error_type,
            "attempts": self.attempts,
        }

    @staticmethod
    def from_dict(data: dict) -> "TaskFailure":
        return TaskFailure(
            index=data["index"],
            kind=data["kind"],
            message=data["message"],
            error_type=data.get("error_type", ""),
            attempts=data.get("attempts", 1),
        )

    def __repr__(self) -> str:
        what = f"{self.error_type}: " if self.error_type else ""
        return (
            f"<TaskFailure #{self.index} {self.kind} after "
            f"{self.attempts} attempt(s): {what}{self.message}>"
        )


class TaskError(ReproError):
    """A task failed permanently under ``on_error="raise"``.

    Raised for *timeout* and *crash* failures (there is no original
    exception to re-raise for those); a task that raised an ordinary
    exception re-raises that exception itself, like the old pool did.
    The structured record is available as ``.failure``.
    """

    def __init__(self, failure: TaskFailure):
        super().__init__(
            f"task {failure.index} failed permanently "
            f"({failure.kind} after {failure.attempts} attempt(s)): "
            f"{failure.message}"
        )
        self.failure = failure


# ----------------------------------------------------------------------
# deterministic fault injection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fault:
    """One injected fault, applied before the task function runs.

    ``kind`` is ``"raise"`` (raise :class:`InjectedFault`), ``"sleep"``
    (sleep ``seconds`` — long enough and the task blows its deadline), or
    ``"exit"`` (``os._exit`` the worker process mid-task — a hard crash
    the supervisor must recover from).  ``attempts`` lists the attempt
    numbers the fault fires on (default: first attempt only, so retries
    observe recovery); ``worker_only=True`` restricts it to pooled worker
    processes, which is how the ``degrade`` disposition's inline
    last-resort attempt is exercised.
    """

    kind: str
    seconds: float = 0.0
    message: str = "injected fault"
    attempts: tuple = (1,)
    worker_only: bool = False

    def __post_init__(self):
        if self.kind not in ("raise", "sleep", "exit"):
            raise ReproError(
                f"Fault.kind must be raise/sleep/exit, got {self.kind!r}"
            )

    def fires(self, attempt: int) -> bool:
        return not self.attempts or attempt in self.attempts

    def apply(self, in_worker: bool) -> None:
        """Execute the fault (in the worker, or inline when allowed)."""
        if self.worker_only and not in_worker:
            return
        if self.kind == "raise":
            raise InjectedFault(self.message)
        if self.kind == "sleep":
            time.sleep(self.seconds)
            return
        if in_worker:  # "exit": kill the hosting process, hard
            os._exit(_INJECTED_EXIT_CODE)
        # Inline there is no worker to kill; simulate the crash as a
        # SimulatedCrash the engine records as kind="crash" (never take
        # the driver process down).
        raise SimulatedCrash(self.message)


class InjectedFault(RuntimeError):
    """The exception a ``Fault(kind="raise")`` raises inside a task."""


class SimulatedCrash(BaseException):
    """Stand-in for worker death on the inline path (see :meth:`Fault.apply`)."""


class FaultPlan:
    """A deterministic schedule of :class:`Fault`\\ s, keyed by task index.

    Plans are plain picklable data shipped inside worker payloads, so the
    injected behavior happens in the *real* execution context — a genuine
    ``os._exit`` in a genuine pool worker.  Multi-phase drivers
    (``pareto_sweep`` runs an anchor map then a budget map) key their
    faults by phase: ``FaultPlan(phases={"budget": {0: Fault("exit")}})``
    and each phase consumes its :meth:`scoped` view.
    """

    def __init__(
        self,
        faults: Optional[Mapping[int, Fault]] = None,
        *,
        phases: Optional[Mapping[str, Mapping[int, Fault]]] = None,
    ):
        self._phases: dict[str, dict[int, Fault]] = {
            name: dict(table) for name, table in (phases or {}).items()
        }
        if faults:
            self._phases.setdefault("", {}).update(faults)

    def scoped(self, phase: str) -> "FaultPlan":
        """The sub-plan for one named phase (empty when none declared)."""
        return FaultPlan(self._phases.get(phase, {}))

    def fault_for(self, index: int, attempt: int) -> Optional[Fault]:
        """The fault to apply to attempt ``attempt`` of task ``index``."""
        fault = self._phases.get("", {}).get(index)
        if fault is not None and fault.fires(attempt):
            return fault
        return None

    def __bool__(self) -> bool:
        return any(self._phases.values())

    def __repr__(self) -> str:
        n = sum(len(t) for t in self._phases.values())
        return f"<FaultPlan {n} fault(s)>"


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------


def _worker_main(conn, fn) -> None:
    """Worker process loop: receive ``(index, attempt, item, fault)``,
    run ``fn(item)``, send ``(index, ok, payload, error_type, message)``.

    Exceptions are shipped back as data (the exception object itself when
    it pickles, a description otherwise) — the worker survives ordinary
    task errors and only dies on injected exits, signals, or a broken
    pipe to the supervisor.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        except KeyboardInterrupt:
            return
        if message is None:
            return
        index, attempt, item, fault = message
        try:
            if fault is not None:
                fault.apply(in_worker=True)
            result = fn(item)
        except KeyboardInterrupt:
            return
        except BaseException as exc:
            try:
                conn.send((index, False, exc, type(exc).__name__, str(exc)))
            except Exception:
                # the exception itself does not pickle; ship a description
                try:
                    conn.send((index, False, None, type(exc).__name__, str(exc)))
                except Exception:
                    return
            continue
        try:
            conn.send((index, True, result, "", ""))
        except Exception as exc:
            # the *result* does not pickle — report it as a task error
            # rather than dying and masquerading as a crash
            try:
                conn.send(
                    (index, False, None, type(exc).__name__,
                     f"task result could not be pickled: {exc}")
                )
            except Exception:
                return


class _Worker:
    """One supervised worker process with its private duplex pipe."""

    __slots__ = ("process", "conn", "index", "attempt", "deadline")

    def __init__(self, ctx, fn):
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child, fn), daemon=True
        )
        self.process.start()
        child.close()
        self.index: Optional[int] = None  # task currently running, if any
        self.attempt = 0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.index is not None

    def assign(self, index: int, attempt: int, item, fault, timeout_s) -> None:
        self.conn.send((index, attempt, item, fault))
        self.index = index
        self.attempt = attempt
        self.deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )

    def finish(self) -> None:
        self.index = None
        self.attempt = 0
        self.deadline = None

    def stop(self, *, graceful: bool) -> None:
        """Tear the worker down; ``graceful`` tries a clean exit first."""
        if graceful and self.process.is_alive() and not self.busy:
            try:
                self.conn.send(None)
            except (OSError, ValueError):
                pass
            self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stuck in a signal
            self.process.kill()
            self.process.join(timeout=1.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# the supervisor (driver side)
# ----------------------------------------------------------------------


def _describe_exit(process) -> str:
    code = process.exitcode
    if code is not None and code < 0:
        return f"worker pid {process.pid} killed by signal {-code}"
    return f"worker pid {process.pid} exited with code {code} mid-task"


class _Supervisor:
    """Runs ``fn`` over ``items`` on supervised workers under ``policy``;
    a ``degrade`` re-run calls ``inline`` in this process instead."""

    def __init__(self, fn, inline, items, workers, policy, fault_plan):
        self.fn = fn
        self.inline = inline
        self.items = items
        self.policy = policy
        self.plan = fault_plan
        self.size = min(workers, len(items))
        self.ctx = multiprocessing.get_context()
        self.workers: list[_Worker] = []
        self.outcomes: dict[int, Any] = {}
        self.attempts = dict.fromkeys(range(len(items)), 0)
        # (ready_time, index): tasks awaiting (re)assignment; ready_time
        # implements retry backoff without blocking the whole supervisor
        self.queue: list[tuple[float, int]] = [(0.0, i) for i in range(len(items))]

    # -- event handling ------------------------------------------------

    def _assign_ready(self) -> None:
        now = time.monotonic()
        idle = [w for w in self.workers if not w.busy]
        while idle and self.queue and self.queue[0][0] <= now:
            _, index = self.queue.pop(0)
            attempt = self.attempts[index] + 1
            self.attempts[index] = attempt
            worker = idle.pop()
            fault = self.plan.fault_for(index, attempt) if self.plan else None
            worker.assign(
                index, attempt, self.items[index], fault, self.policy.timeout_s
            )

    def _wait_timeout(self) -> Optional[float]:
        now = time.monotonic()
        marks = [w.deadline for w in self.workers if w.busy and w.deadline]
        if self.queue and any(not w.busy for w in self.workers):
            marks.append(self.queue[0][0])
        if not marks:
            return None
        return max(0.0, min(marks) - now) + 0.01

    def _handle_message(self, worker: _Worker) -> None:
        index, ok, payload, error_type, message = worker.conn.recv()
        worker.finish()
        if ok:
            self.outcomes[index] = _Success(payload)
        else:
            self._task_failed(index, "error", message, error_type, payload)

    def _worker_died(self, worker: _Worker) -> None:
        index = worker.index
        worker.stop(graceful=False)
        self.workers.remove(worker)
        if index is None:
            # died while idle (e.g. crash-fault straggler): just replace
            self._replenish()
            return
        self._task_failed(index, "crash", _describe_exit(worker.process), "")
        self._replenish()

    def _kill_overdue(self) -> None:
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.busy and worker.deadline and worker.deadline < now:
                index = worker.index
                worker.stop(graceful=False)
                self.workers.remove(worker)
                self._task_failed(
                    index,
                    "timeout",
                    f"task exceeded its {self.policy.timeout_s}s deadline "
                    f"(worker pid {worker.process.pid} killed)",
                    "",
                )
                self._replenish()

    def _replenish(self) -> None:
        """Keep one worker per outstanding (queued or running) task slot."""
        outstanding = len(self.queue) + sum(1 for w in self.workers if w.busy)
        while len(self.workers) < min(self.size, outstanding):
            self.workers.append(_Worker(self.ctx, self.fn))

    def _task_failed(self, index, kind, message, error_type, exc=None) -> None:
        attempt = self.attempts[index]
        if attempt <= self.policy.retries:
            delay = self.policy.retry_delay(attempt)
            self.queue.append((time.monotonic() + delay, index))
            self.queue.sort()
            return
        failure = TaskFailure(
            index=index,
            kind=kind,
            message=message,
            error_type=error_type,
            attempts=attempt,
        )
        self.outcomes[index] = self._dispose(failure, exc)

    def _dispose(self, failure: TaskFailure, exc):
        """Apply the policy's permanent-failure disposition."""
        if self.policy.on_error == "raise":
            if exc is not None and isinstance(exc, Exception):
                raise exc
            raise TaskError(failure)
        if self.policy.on_error == "degrade":
            # last resort: run unsupervised in this process (no deadline,
            # no isolation) — recovers pool-environment failures
            try:
                return _Success(
                    _run_one_inline(
                        self.inline,
                        self.items[failure.index],
                        failure.index,
                        failure.attempts + 1,
                        self.plan,
                    )
                )
            except SimulatedCrash:
                pass
            except Exception:
                pass
        return failure

    # -- the main loop -------------------------------------------------

    def run(self) -> Iterator[Any]:
        try:
            self._replenish()
            emitted = 0
            while len(self.outcomes) < len(self.items):
                self._assign_ready()
                triggers = {}
                for worker in self.workers:
                    triggers[worker.conn] = worker
                    triggers[worker.process.sentinel] = worker
                ready = multiprocessing.connection.wait(
                    list(triggers), timeout=self._wait_timeout()
                )
                seen = set()
                for obj in ready:
                    worker = triggers[obj]
                    if id(worker) in seen or worker not in self.workers:
                        continue
                    seen.add(id(worker))
                    handled = False
                    try:
                        if worker.conn.poll():
                            self._handle_message(worker)
                            handled = True
                    except (EOFError, OSError):
                        # broken pipe == the worker is gone, whatever
                        # is_alive says right now
                        self._worker_died(worker)
                        continue
                    if not handled and not worker.process.is_alive():
                        self._worker_died(worker)
                self._kill_overdue()
                while emitted < len(self.items) and emitted in self.outcomes:
                    outcome = self.outcomes[emitted]
                    yield outcome.value if isinstance(outcome, _Success) else outcome
                    emitted += 1
        finally:
            for worker in self.workers:
                worker.stop(graceful=not worker.busy)
            self.workers.clear()


@dataclass
class _Success:
    """Wrapper distinguishing a genuine result from a TaskFailure slot."""

    value: Any = field(default=None)


# ----------------------------------------------------------------------
# inline execution (one worker / one item)
# ----------------------------------------------------------------------


def _run_one_inline(fn, item, index, attempt, plan):
    fault = plan.fault_for(index, attempt) if plan else None
    if fault is not None:
        fault.apply(in_worker=False)
    return fn(item)


def _iter_inline(fn, items, policy, plan) -> Iterator[Any]:
    """The no-pool path: same policy semantics, minus deadlines (running
    work cannot be cancelled in-process) and minus real crashes (injected
    ``exit`` faults surface as ``kind="crash"`` failures instead of
    taking the driver down)."""
    for index, item in enumerate(items):
        attempt = 0
        while True:
            attempt += 1
            try:
                yield _run_one_inline(fn, item, index, attempt, plan)
                break
            except SimulatedCrash as crash:
                kind, error_type, message, exc = "crash", "", str(crash), None
            except Exception as caught:
                kind, error_type, message, exc = (
                    "error", type(caught).__name__, str(caught), caught
                )
            if attempt <= policy.retries:
                delay = policy.retry_delay(attempt)
                if delay:
                    time.sleep(delay)
                continue
            failure = TaskFailure(
                index=index, kind=kind, message=message,
                error_type=error_type, attempts=attempt,
            )
            if policy.on_error == "raise":
                if exc is not None:
                    raise exc
                raise TaskError(failure)
            if policy.on_error == "degrade":
                try:
                    yield _run_one_inline(fn, item, index, attempt + 1, plan)
                    break
                except (SimulatedCrash, Exception):
                    pass
            yield failure
            break
