"""Deterministic fault injection for the pool tests.

The package's process pool knows nothing about faults: it only exposes
the running task's ``(index, attempt)`` through the private context
variable ``repro.core.resilience._TASK``, set in a worker and inline
alike.  This module wraps a real task function so that chosen task
indices and attempts raise, sleep past a deadline, or ``os._exit`` the
worker *before* the task runs — a genuine crash of a genuine pool
worker, not a mock.

Driver tests install a plan on the driver's module-global task function,
which every driver looks up when it is called::

    install(monkeypatch, "repro.core.batch._compile_task",
            FaultPlan({1: Fault("exit")}))

Multi-phase drivers (``pareto_sweep`` runs the anchors, then the
budgets, each phase a separate map whose indices start at 0) restrict a
plan with a payload predicate such as :func:`budget_point`.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from repro.core.resilience import _TASK
from repro.errors import ReproError

#: exit code of an injected ``os._exit`` crash (recognizable in messages)
INJECTED_EXIT_CODE = 13


class InjectedFault(RuntimeError):
    """The exception a ``Fault("raise")`` raises inside a task."""


@dataclass(frozen=True)
class Fault:
    """One injected fault, applied before the task function runs.

    ``kind`` is ``"raise"`` (raise :class:`InjectedFault`), ``"sleep"``
    (sleep ``seconds`` — long enough and the task blows its deadline) or
    ``"exit"`` (``os._exit`` the worker mid-task).  ``attempts`` lists the
    attempt numbers the fault fires on (default: the first only, so
    retries observe recovery; empty: every attempt); ``worker_only=True``
    keeps it out of the driver process, which is how the ``degrade``
    disposition's inline last attempt is exercised.
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

    def apply(self) -> None:
        """Execute the fault in the current process (a pool worker has a
        parent process; the driver has none)."""
        worker = multiprocessing.parent_process() is not None
        if self.worker_only and not worker:
            return
        if self.kind == "raise":
            raise InjectedFault(self.message)
        if self.kind == "sleep":
            time.sleep(self.seconds)
            return
        if not worker:  # never take the test runner down
            raise ReproError("an exit fault fired in the driver process")
        os._exit(INJECTED_EXIT_CODE)


class FaultPlan:
    """Faults keyed by task index, optionally only for payloads that
    ``only`` accepts (a module-level predicate, so the plan pickles)."""

    def __init__(
        self,
        faults: Optional[Mapping[int, Fault]] = None,
        *,
        only: Optional[Callable[[object], bool]] = None,
    ):
        self.faults = dict(faults or {})
        self.only = only

    def fault_for(self, item, index: int, attempt: int) -> Optional[Fault]:
        """The fault to apply to attempt ``attempt`` of task ``index``."""
        if self.only is not None and not self.only(item):
            return None
        fault = self.faults.get(index)
        return fault if fault is not None and fault.fires(attempt) else None


def _faulty(plan: FaultPlan, fn, item, *rest):
    index, attempt = _TASK.get()
    fault = plan.fault_for(item, index, attempt)
    if fault is not None:
        fault.apply()
    return fn(item, *rest)


def inject(fn, plan: FaultPlan):
    """``fn`` with ``plan``'s faults fired before each call."""
    return functools.partial(_faulty, plan, fn)


def install(monkeypatch, target: str, plan: FaultPlan) -> None:
    """Wrap the module-global task function ``target`` ("module.name")."""
    module, name = target.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(target, inject(real, plan))


def anchor_point(payload) -> bool:
    """A ``pareto_sweep`` task payload of the ``size``/``depth`` anchors."""
    return payload[1] in ("size", "depth")


def budget_point(payload) -> bool:
    """A ``pareto_sweep`` task payload of an intermediate depth budget."""
    return payload[1].startswith("budget=")
