"""The fault-tolerant execution engine (``repro.core.resilience``).

The fault-injection tests here are real, not mocked: ``Fault("exit")``
(``tests/faults.py``, wrapped around the task function) genuinely
``os._exit``\\ s a pool worker mid-task and the supervisor must recover,
``Fault("sleep")`` genuinely blows a deadline and the worker is killed.
The acceptance bar: a crashed worker loses only its own task under
``on_error="skip"`` (all other results byte-identical to a clean run), a
hung task is cancelled at ``timeout_s``, and results arrive in input
order for any worker count and fault pattern.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.core.batch import parallel_imap, parallel_map
from repro.core.cache import COMPILATION_KIND, SynthesisCache
from repro.core.resilience import TaskError, TaskFailure, TaskPolicy
from repro.errors import ReproError

from faults import Fault, FaultPlan, inject

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


def _store_record(x, cache):
    """Store one compilation record keyed by ``x``; report which cache
    instance the task was handed, and where it ran."""
    cache.put_compilation(f"fp{x}", None, None, {"x": x})
    return {
        "square": x * x,
        "cache_id": id(cache),
        "read_only": cache.read_only,
        "cache_dir": cache.cache_dir,
        "pid": os.getpid(),
    }


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
        {"timeout_s": float("inf")}, {"timeout_s": float("nan")},
        {"timeout_s": True}, {"timeout_s": "5"},
        {"backoff": float("nan")}, {"backoff": float("inf")}, {"backoff": "x"},
        {"retries": True},
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


class TestInlinePath:
    """workers=1 — same policy semantics, no real processes."""

    def test_plain_map(self):
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]
        assert parallel_map(_square, [], workers=1) == []

    def test_raise_mode_reraises_the_original_exception(self):
        with pytest.raises(ValueError, match="negative input -2"):
            parallel_map(_fail_on_negative, [1, -2, 3], workers=1)

    def test_skip_mode_records_the_failure_in_place(self):
        out = parallel_map(
            _fail_on_negative, [1, -2, 3], workers=1,
            policy=TaskPolicy(on_error="skip"),
        )
        assert out[0] == 1 and out[2] == 9
        assert isinstance(out[1], TaskFailure)
        assert out[1].index == 1 and out[1].kind == "error"
        assert out[1].error_type == "ValueError"

    def test_retry_recovers_a_transient_fault(self):
        plan = FaultPlan({1: Fault("raise", attempts=(1,))})
        out = parallel_map(
            inject(_square, plan), [1, 2, 3], workers=1,
            policy=TaskPolicy(retries=1, backoff=0),
        )
        assert out == [1, 4, 9]

    def test_degrade_retries_worker_only_faults_inline(self):
        # worker_only=False → the fault also fires inline; the degrade
        # attempt fires it again (attempts=()) so the failure stands
        always = FaultPlan({0: Fault("raise", attempts=())})
        out = parallel_map(
            inject(_square, always), [3], workers=1,
            policy=TaskPolicy(on_error="degrade"),
        )
        assert isinstance(out[0], TaskFailure)
        # fault limited to attempt 1 → the degrade attempt (attempt 2) runs clean
        once = FaultPlan({0: Fault("raise", attempts=(1,))})
        out = parallel_map(
            inject(_square, once), [3], workers=1,
            policy=TaskPolicy(on_error="degrade"),
        )
        assert out == [9]


class TestPooledPath:
    """Real worker processes, real crashes, real deadlines."""

    def test_plain_map_matches_inline(self):
        items = list(range(10))
        assert parallel_map(_square, items, workers=POOL) == [x * x for x in items]

    def test_worker_crash_loses_only_that_task(self):
        """ISSUE 7 acceptance: os._exit mid-run costs exactly one slot and
        every surviving result is byte-identical to a clean run."""
        items = list(range(8))
        clean = parallel_map(_square, items, workers=POOL)
        plan = FaultPlan({3: Fault("exit")})
        out = parallel_map(
            inject(_square, plan), items, workers=POOL,
            policy=TaskPolicy(on_error="skip"),
        )
        assert isinstance(out[3], TaskFailure)
        assert out[3].kind == "crash" and out[3].index == 3
        for i in range(len(items)):
            if i != 3:
                assert pickle.dumps(out[i]) == pickle.dumps(clean[i])

    def test_injected_exit_becomes_a_crash_record_not_driver_death(self):
        plan = FaultPlan({0: Fault("exit")})
        out = parallel_map(
            inject(_square, plan), [5], workers=1, force_pool=True,
            policy=TaskPolicy(on_error="skip"),
        )
        assert isinstance(out[0], TaskFailure) and out[0].kind == "crash"

    def test_crash_then_retry_recovers(self):
        plan = FaultPlan({2: Fault("exit", attempts=(1,))})
        out = parallel_map(
            inject(_square, plan), list(range(6)), workers=POOL,
            policy=TaskPolicy(retries=1, backoff=0),
        )
        assert out == [x * x for x in range(6)]

    def test_crash_under_raise_mode_raises_task_error(self):
        plan = FaultPlan({1: Fault("exit")})
        with pytest.raises(TaskError) as excinfo:
            parallel_map(inject(_square, plan), list(range(4)), workers=POOL)
        assert excinfo.value.failure.kind == "crash"
        assert excinfo.value.failure.index == 1

    def test_hung_task_is_cancelled_at_the_deadline(self):
        """ISSUE 7 acceptance: a task sleeping far past ``timeout_s`` is
        killed at the deadline, not awaited."""
        plan = FaultPlan({1: Fault("sleep", seconds=60)})
        start = time.monotonic()
        out = parallel_map(
            inject(_square, plan), list(range(4)), workers=POOL,
            policy=TaskPolicy(timeout_s=1.0, on_error="skip"),
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"deadline not enforced ({elapsed:.1f}s)"
        assert isinstance(out[1], TaskFailure) and out[1].kind == "timeout"
        assert [out[0], out[2], out[3]] == [0, 4, 9]

    def test_task_exception_reraises_original_type(self):
        with pytest.raises(ValueError, match="negative input -7"):
            parallel_map(_fail_on_negative, [1, -7, 2, 3], workers=POOL)

    def test_unpicklable_exception_still_reports_cleanly(self):
        out = parallel_map(
            _raise_unpicklable, [1, 2], workers=POOL,
            policy=TaskPolicy(on_error="skip"),
        )
        assert all(isinstance(o, TaskFailure) for o in out)
        assert out[0].error_type == "Unpicklable"

    def test_unpicklable_result_is_an_error_not_a_crash(self):
        out = parallel_map(
            _return_unpicklable, [1], workers=POOL,
            policy=TaskPolicy(on_error="skip"),
        )
        # single item runs inline; force the pooled path with two
        out = parallel_map(
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
            out = parallel_map(
                inject(_square, plan), items, workers=workers,
                policy=TaskPolicy(on_error="skip"),
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
        out = parallel_map(
            inject(_square, plan), [1, 2, 3], workers=POOL,
            policy=TaskPolicy(on_error="degrade"),
        )
        assert out == [1, 4, 9]


class TestCacheHandOff:
    """``parallel_map(..., cache=)``: inline tasks share the live cache,
    pooled tasks work on read-only views whose entries the parent
    absorbs."""

    def test_inline_tasks_receive_the_live_cache(self):
        cache = SynthesisCache()
        out = parallel_map(_store_record, [1, 2, 3], workers=1, cache=cache)
        assert [o["square"] for o in out] == [1, 4, 9]
        assert {o["cache_id"] for o in out} == {id(cache)}
        assert cache.stats_snapshot()["memory"]["entries"] == 3

    def test_pooled_tasks_receive_read_only_views(self, tmp_path):
        cache = SynthesisCache(tmp_path)
        out = parallel_map(_store_record, [1, 2, 3], workers=POOL, cache=cache)
        assert [o["square"] for o in out] == [1, 4, 9]
        for o in out:
            assert o["read_only"] and o["cache_dir"] == tmp_path
            assert o["pid"] != os.getpid()
        # the parent persisted exactly the entries the tasks computed
        usage = cache.disk_usage()
        assert sum(kind["entries"] for kind in usage.values()) == 3
        reader = SynthesisCache(tmp_path)
        for x in (1, 2, 3):
            assert reader.get_compilation(f"fp{x}", None, None) == {"x": x}

    def test_entries_are_absorbed_as_outcomes_are_emitted(self):
        cache = SynthesisCache()
        outcomes = parallel_imap(_store_record, [1, 2, 3], workers=POOL, cache=cache)
        for emitted, _ in enumerate(outcomes, start=1):
            assert cache.stats_snapshot()["memory"]["entries"] == emitted

    def test_degrade_rerun_stores_into_the_live_cache(self, tmp_path):
        plan = FaultPlan({1: Fault("raise", attempts=(), worker_only=True)})
        cache = SynthesisCache(tmp_path)
        out = parallel_map(
            inject(_store_record, plan), [1, 2, 3], workers=POOL, cache=cache,
            policy=TaskPolicy(on_error="degrade"),
        )
        assert [o["square"] for o in out] == [1, 4, 9]
        assert out[1]["cache_id"] == id(cache) and not out[1]["read_only"]
        assert out[1]["pid"] == os.getpid()
        assert cache.get_compilation("fp2", None, None) == {"x": 2}
        assert cache.disk_usage()[COMPILATION_KIND]["entries"] == 3
