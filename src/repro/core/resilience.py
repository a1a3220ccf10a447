"""Fault-tolerant task execution: policies, crash recovery, deadlines.

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

The running task's ``(index, attempt)`` is readable from a private
context variable while ``fn`` runs, in a worker and inline alike; the
tests' fault injector (``tests/faults.py``) wraps a task function and
reads it to fire its faults in the real execution context.

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

import math
import multiprocessing
import multiprocessing.connection
import numbers
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.errors import ReproError

__all__ = [
    "TaskError",
    "TaskFailure",
    "TaskPolicy",
]

#: permanent-failure dispositions a :class:`TaskPolicy` may declare
ON_ERROR_MODES = ("raise", "skip", "degrade")

#: failure kinds a :class:`TaskFailure` reports
FAILURE_KINDS = ("error", "timeout", "crash")

#: ``(index, attempt)`` of the task running in this context
_TASK: ContextVar[tuple[int, int]] = ContextVar("repro_task")


# ----------------------------------------------------------------------
# policies and failure records
# ----------------------------------------------------------------------


def _is_real(value) -> bool:
    """A real number, not a bool (``True`` is an ``int`` to Python)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        if self.timeout_s is not None and not (
            _is_real(self.timeout_s) and 0 < self.timeout_s < math.inf
        ):
            raise ReproError(
                f"TaskPolicy.timeout_s must be a finite number > 0 (or None), "
                f"got {self.timeout_s!r}"
            )
        if (
            not isinstance(self.retries, int)
            or isinstance(self.retries, bool)
            or self.retries < 0
        ):
            raise ReproError(
                f"TaskPolicy.retries must be >= 0, got {self.retries!r}"
            )
        if not (_is_real(self.backoff) and 0 <= self.backoff < math.inf):
            raise ReproError(
                f"TaskPolicy.backoff must be a finite number >= 0, got "
                f"{self.backoff!r}"
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
# the worker side
# ----------------------------------------------------------------------


def _worker_main(conn, fn) -> None:
    """Worker process loop: receive ``(index, attempt, item)``, run
    ``fn(item)``, send ``(index, ok, payload, error_type, message)``.

    Exceptions are shipped back as data (the exception object itself when
    it pickles, a description otherwise) — the worker survives ordinary
    task errors and only dies on ``os._exit``, signals, or a broken
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
        index, attempt, item = message
        _TASK.set((index, attempt))
        try:
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

    def assign(self, index: int, attempt: int, item, timeout_s) -> None:
        self.conn.send((index, attempt, item))
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

    def __init__(self, fn, inline, items, workers, policy):
        self.fn = fn
        self.inline = inline
        self.items = items
        self.policy = policy
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
            worker.assign(index, attempt, self.items[index], self.policy.timeout_s)

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
            # died while idle: just replace
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
                    )
                )
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


def _run_one_inline(fn, item, index, attempt):
    _TASK.set((index, attempt))
    return fn(item)


def _iter_inline(fn, items, policy) -> Iterator[Any]:
    """The no-pool path: same policy semantics, minus deadlines (running
    work cannot be cancelled in-process) and minus crashes (nothing
    survives the death of this process to record one)."""
    for index, item in enumerate(items):
        attempt = 0
        while True:
            attempt += 1
            try:
                yield _run_one_inline(fn, item, index, attempt)
                break
            except Exception as caught:
                exc = caught
            if attempt <= policy.retries:
                delay = policy.retry_delay(attempt)
                if delay:
                    time.sleep(delay)
                continue
            if policy.on_error == "raise":
                raise exc
            if policy.on_error == "degrade":
                try:
                    yield _run_one_inline(fn, item, index, attempt + 1)
                    break
                except Exception:
                    pass
            yield TaskFailure(
                index=index, kind="error", message=str(exc),
                error_type=type(exc).__name__, attempts=attempt,
            )
            break
