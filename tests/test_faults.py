"""The test-side fault injector (``tests/faults.py``) on its own."""

from __future__ import annotations

import pytest

from repro.core.batch import parallel_map
from repro.errors import ReproError

from faults import (
    Fault,
    FaultPlan,
    InjectedFault,
    anchor_point,
    budget_point,
    inject,
)


def _identity(x):
    return x


class TestFaultPlan:
    def test_invalid_kind_raises(self):
        with pytest.raises(ReproError):
            Fault("oom")

    def test_fires_on_listed_attempts_only(self):
        fault = Fault("raise", attempts=(1, 3))
        assert fault.fires(1) and not fault.fires(2) and fault.fires(3)
        assert Fault("raise", attempts=()).fires(99)  # empty = every attempt

    def test_payload_predicate_scopes_the_plan(self):
        anchor = ("ctrl", "size", None)
        budget = ("ctrl", "budget=3", None)
        plan = FaultPlan({0: Fault("raise")})
        assert plan.fault_for(anchor, 0, 1) is not None
        assert plan.fault_for(anchor, 1, 1) is None
        budgets = FaultPlan({2: Fault("exit")}, only=budget_point)
        assert budgets.fault_for(budget, 2, 1).kind == "exit"
        assert budgets.fault_for(anchor, 2, 1) is None
        assert anchor_point(("c", "depth")) and not anchor_point(budget)


class TestInjectedFaultTypes:
    def test_raise_fault_raises_injected_fault(self):
        with pytest.raises(InjectedFault, match="injected fault"):
            Fault("raise").apply()

    def test_worker_only_fault_is_inert_inline(self):
        Fault("raise", worker_only=True).apply()  # no raise

    def test_exit_fault_never_kills_the_driver(self):
        with pytest.raises(ReproError, match="driver process"):
            Fault("exit").apply()

    def test_wrapper_reads_the_running_task(self):
        plan = FaultPlan({1: Fault("raise", message="second")})
        with pytest.raises(InjectedFault, match="second"):
            parallel_map(inject(_identity, plan), ["a", "b", "c"], workers=1)
        assert parallel_map(inject(_identity, plan), ["a"], workers=1) == ["a"]
