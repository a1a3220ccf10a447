"""The fault-tolerant execution engine (``repro.core.resilience``).

The fault-injection tests here are real, not mocked: ``Fault("exit")``
genuinely ``os._exit``\\ s a pool worker mid-task and the supervisor must
recover, ``Fault("sleep")`` genuinely blows a deadline and the worker is
killed.  The acceptance bar (ISSUE 7): a crashed worker loses only its
own task under ``on_error="skip"`` (all other results byte-identical to
a clean run), a hung task is cancelled at ``timeout_s``, and results
arrive in input order for any worker count and fault pattern.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.core.resilience import (
    Fault,
    FaultPlan,
    InjectedFault,
    TaskError,
    TaskFailure,
    TaskPolicy,
    run_tasks,
    split_failures,
)
from repro.errors import ReproError

POOL = 2  # pooled-path worker count (works on any CPU count)


def _square(x):
    return x * x


def _fail_on_negative(x):
    if x < 0:
        raise ValueError(f"negative input {x}")
    return x * x


class Unpicklable(Exception):
    def __init__(self, handle):
        super().__init__("carries a live handle")
        self.handle = handle

    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


def _raise_unpicklable(x):
    raise Unpicklable(object())


def _return_unpicklable(x):
    return lambda: x  # lambdas don't pickle


class TestTaskPolicy:
    def test_defaults(self):
        policy = TaskPolicy()
        assert policy.timeout_s is None
        assert policy.retries == 0
        assert policy.on_error == "raise"

    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": 0}, {"timeout_s": -1.5},
        {"retries": -1}, {"retries": 1.5},
        {"backoff": -0.1},
        {"on_error": "ignore"}, {"on_error": ""},
    ])
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ReproError):
            TaskPolicy(**kwargs)

    def test_retry_delay_is_exponential(self):
        policy = TaskPolicy(backoff=0.5)
        assert [policy.retry_delay(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]
        assert TaskPolicy(backoff=0).retry_delay(3) == 0.0


class TestTaskFailure:
    def test_dict_roundtrip(self):
        failure = TaskFailure(3, "timeout", "too slow", attempts=2)
        assert TaskFailure.from_dict(failure.to_dict()) == failure

    def test_repr_mentions_what_failed(self):
        failure = TaskFailure(7, "error", "boom", error_type="ValueError")
        text = repr(failure)
        assert "#7" in text and "ValueError" in text and "boom" in text


class TestFaultPlan:
    def test_invalid_kind_raises(self):
        with pytest.raises(ReproError):
            Fault("oom")

    def test_fires_on_listed_attempts_only(self):
        fault = Fault("raise", attempts=(1, 3))
        assert fault.fires(1) and not fault.fires(2) and fault.fires(3)
        assert Fault("raise", attempts=()).fires(99)  # empty = every attempt

    def test_scoped_phases(self):
        plan = FaultPlan(
            {0: Fault("raise")}, phases={"budget": {2: Fault("exit")}}
        )
        assert plan.fault_for(0, 1) is not None
        assert plan.fault_for(2, 1) is None  # phase faults need scoping
        budget = plan.scoped("budget")
        assert budget.fault_for(2, 1).kind == "exit"
        assert not plan.scoped("nonexistent")
        assert bool(plan) and bool(budget)
        assert not FaultPlan()


class TestInlinePath:
    """workers=1 — same policy semantics, no real processes."""

    def test_plain_map(self):
        assert run_tasks(_square, [1, 2, 3], workers=1) == [1, 4, 9]
        assert run_tasks(_square, [], workers=1) == []

    def test_raise_mode_reraises_the_original_exception(self):
        with pytest.raises(ValueError, match="negative input -2"):
            run_tasks(_fail_on_negative, [1, -2, 3], workers=1)

    def test_skip_mode_records_the_failure_in_place(self):
        out = run_tasks(
            _fail_on_negative, [1, -2, 3], workers=1,
            policy=TaskPolicy(on_error="skip"),
        )
        assert out[0] == 1 and out[2] == 9
        assert isinstance(out[1], TaskFailure)
        assert out[1].index == 1 and out[1].kind == "error"
        assert out[1].error_type == "ValueError"

    def test_retry_recovers_a_transient_fault(self):
        plan = FaultPlan({1: Fault("raise", attempts=(1,))})
        out = run_tasks(
            _square, [1, 2, 3], workers=1,
            policy=TaskPolicy(retries=1, backoff=0), fault_plan=plan,
        )
        assert out == [1, 4, 9]

    def test_injected_exit_becomes_a_crash_record_not_driver_death(self):
        plan = FaultPlan({0: Fault("exit")})
        out = run_tasks(
            _square, [5], workers=1,
            policy=TaskPolicy(on_error="skip"), fault_plan=plan,
        )
        assert isinstance(out[0], TaskFailure) and out[0].kind == "crash"

    def test_degrade_retries_worker_only_faults_inline(self):
        # worker_only=False → the fault also fires inline; the degrade
        # attempt fires it again (attempts=()) so the failure stands
        always = FaultPlan({0: Fault("raise", attempts=())})
        out = run_tasks(
            _square, [3], workers=1,
            policy=TaskPolicy(on_error="degrade"), fault_plan=always,
        )
        assert isinstance(out[0], TaskFailure)
        # fault limited to attempt 1 → the degrade attempt (attempt 2) runs clean
        once = FaultPlan({0: Fault("raise", attempts=(1,))})
        out = run_tasks(
            _square, [3], workers=1,
            policy=TaskPolicy(on_error="degrade"), fault_plan=once,
        )
        assert out == [9]


class TestPooledPath:
    """Real worker processes, real crashes, real deadlines."""

    def test_plain_map_matches_inline(self):
        items = list(range(10))
        assert run_tasks(_square, items, workers=POOL) == [x * x for x in items]

    def test_worker_crash_loses_only_that_task(self):
        """ISSUE 7 acceptance: os._exit mid-run costs exactly one slot and
        every surviving result is byte-identical to a clean run."""
        items = list(range(8))
        clean = run_tasks(_square, items, workers=POOL)
        plan = FaultPlan({3: Fault("exit")})
        out = run_tasks(
            _square, items, workers=POOL,
            policy=TaskPolicy(on_error="skip"), fault_plan=plan,
        )
        assert isinstance(out[3], TaskFailure)
        assert out[3].kind == "crash" and out[3].index == 3
        for i in range(len(items)):
            if i != 3:
                assert pickle.dumps(out[i]) == pickle.dumps(clean[i])

    def test_crash_then_retry_recovers(self):
        plan = FaultPlan({2: Fault("exit", attempts=(1,))})
        out = run_tasks(
            _square, list(range(6)), workers=POOL,
            policy=TaskPolicy(retries=1, backoff=0), fault_plan=plan,
        )
        assert out == [x * x for x in range(6)]

    def test_crash_under_raise_mode_raises_task_error(self):
        plan = FaultPlan({1: Fault("exit")})
        with pytest.raises(TaskError) as excinfo:
            run_tasks(_square, list(range(4)), workers=POOL, fault_plan=plan)
        assert excinfo.value.failure.kind == "crash"
        assert excinfo.value.failure.index == 1

    def test_hung_task_is_cancelled_at_the_deadline(self):
        """ISSUE 7 acceptance: a task sleeping far past ``timeout_s`` is
        killed at the deadline, not awaited."""
        plan = FaultPlan({1: Fault("sleep", seconds=60)})
        start = time.monotonic()
        out = run_tasks(
            _square, list(range(4)), workers=POOL,
            policy=TaskPolicy(timeout_s=1.0, on_error="skip"),
            fault_plan=plan,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"deadline not enforced ({elapsed:.1f}s)"
        assert isinstance(out[1], TaskFailure) and out[1].kind == "timeout"
        assert [out[0], out[2], out[3]] == [0, 4, 9]

    def test_task_exception_reraises_original_type(self):
        with pytest.raises(ValueError, match="negative input -7"):
            run_tasks(_fail_on_negative, [1, -7, 2, 3], workers=POOL)

    def test_unpicklable_exception_still_reports_cleanly(self):
        out = run_tasks(
            _raise_unpicklable, [1, 2], workers=POOL,
            policy=TaskPolicy(on_error="skip"),
        )
        assert all(isinstance(o, TaskFailure) for o in out)
        assert out[0].error_type == "Unpicklable"

    def test_unpicklable_result_is_an_error_not_a_crash(self):
        out = run_tasks(
            _return_unpicklable, [1], workers=POOL,
            policy=TaskPolicy(on_error="skip"),
        )
        # single item runs inline; force the pooled path with two
        out = run_tasks(
            _return_unpicklable, [1, 2], workers=POOL,
            policy=TaskPolicy(on_error="skip"),
        )
        assert all(isinstance(o, TaskFailure) for o in out)
        assert all(o.kind == "error" for o in out)
        assert "pickle" in out[0].message

    def test_order_is_input_order_for_any_worker_count(self):
        items = list(range(12))
        plan = FaultPlan({5: Fault("exit")})
        expected = None
        for workers in (2, 3, 4):
            out = run_tasks(
                _square, items, workers=workers,
                policy=TaskPolicy(on_error="skip"), fault_plan=plan,
            )
            key = [
                ("fail", o.index, o.kind) if isinstance(o, TaskFailure) else o
                for o in out
            ]
            if expected is None:
                expected = key
            assert key == expected

    def test_degrade_recovers_worker_only_faults(self):
        # the fault fires on every pooled attempt but never inline, so
        # only the degrade disposition's in-driver attempt can succeed
        plan = FaultPlan({1: Fault("raise", attempts=(), worker_only=True)})
        out = run_tasks(
            _square, [1, 2, 3], workers=POOL,
            policy=TaskPolicy(on_error="degrade"), fault_plan=plan,
        )
        assert out == [1, 4, 9]


class TestSplitFailures:
    def test_partitions_in_order(self):
        out = run_tasks(
            _fail_on_negative, [1, -2, 3, -4], workers=1,
            policy=TaskPolicy(on_error="skip"),
        )
        results, failures = split_failures(out)
        assert results == [1, 9]
        assert [f.index for f in failures] == [1, 3]


class TestInjectedFaultTypes:
    def test_raise_fault_raises_injected_fault(self):
        with pytest.raises(InjectedFault, match="injected fault"):
            Fault("raise").apply(in_worker=False)

    def test_worker_only_fault_is_inert_inline(self):
        Fault("raise", worker_only=True).apply(in_worker=False)  # no raise
