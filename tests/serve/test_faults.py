"""Deterministic fault injection through the serve stack.

Reuses ``tests/faults.py`` — the same lever every pooled driver in this
codebase is tested with — wrapped around the server's task function
``repro.serve.app.serve_compile_task`` (task index 0 of each request).
Worker crashes, deadlines, queue shedding and the drain contract all
come back as *structured protocol errors*, never as wedged requests or
raw exceptions.

The pooled tests spawn real worker processes (that is the point: a
genuine ``os._exit`` in a genuine worker); they are the slowest tests in
the serve suite but stay well under CI budgets.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.resilience import TaskFailure
from repro.errors import ReproError
from repro.serve.app import RETRY_AFTER_S, ServerConfig

from faults import Fault, FaultPlan, install

from .conftest import aget, apost, make_app


def crash_plan(attempts=(1,)) -> FaultPlan:
    return FaultPlan({0: Fault("exit", attempts=attempts)})


def sleep_plan(seconds: float) -> FaultPlan:
    return FaultPlan({0: Fault("sleep", seconds=seconds, attempts=())})


def faulty_app(monkeypatch, plan: FaultPlan, **config_kwargs):
    """A fresh server whose compiles run under ``plan``."""
    install(monkeypatch, "repro.serve.app.serve_compile_task", plan)
    return make_app(**config_kwargs)


class TestCrashPaths:
    def test_inline_crash_is_structured_502(self, circuit_payloads, monkeypatch):
        # an inline compile cannot kill its own process, so the pool's
        # crash record is handed to the unpooled server directly: it must
        # map to the same structured 502 as a genuine worker exit
        def crashed_map(fn, items, workers=None, **kwargs):
            assert kwargs["force_pool"] is False
            return [TaskFailure(0, "crash", "worker exited with code 13")]

        monkeypatch.setattr("repro.serve.app.parallel_map", crashed_map)
        app = make_app()
        response = asyncio.run(apost(app, "/compile", circuit_payloads["mig"]))
        assert response.status == 502
        error = response.json()["error"]
        assert error["code"] == "worker-crash"
        assert error["attempts"] == 1
        assert app.counters["failures"] == 1

    def test_pooled_worker_exit_is_structured_502(
        self, circuit_payloads, monkeypatch
    ):
        # a genuine os._exit in a genuine supervised worker process
        app = faulty_app(monkeypatch, crash_plan(), pooled=True)
        response = asyncio.run(apost(app, "/compile", circuit_payloads["mig"]))
        assert response.status == 502
        error = response.json()["error"]
        assert error["code"] == "worker-crash"
        assert error["attempts"] == 1
        assert app.counters["failures"] == 1

    def test_batch_class_retries_past_the_crash(
        self, circuit_payloads, monkeypatch
    ):
        # the fault fires on attempt 1 only; class=batch grants a retry,
        # so the same request that 502s interactively succeeds as batch
        app = faulty_app(monkeypatch, crash_plan(attempts=(1,)), pooled=True)
        payload = dict(circuit_payloads["mig"])
        payload["class"] = "batch"
        response = asyncio.run(apost(app, "/compile", payload))
        assert response.status == 200, response.body
        assert response.json()["cached"] is False

    def test_error_fans_out_to_dedup_followers(
        self, circuit_payloads, monkeypatch
    ):
        # an error response is published to the whole dedup group —
        # followers of a failed leader see the identical error bytes
        app = faulty_app(monkeypatch, crash_plan(), pooled=True)
        payload = circuit_payloads["mig"]

        async def main():
            return await asyncio.gather(
                *[apost(app, "/compile", payload) for _ in range(5)]
            )

        responses = asyncio.run(main())
        assert [r.status for r in responses] == [502] * 5
        assert len({r.body for r in responses}) == 1
        assert app.counters["failures"] == 1  # one leader failed, once


class TestInjectedException:
    def test_unexpected_task_exception_is_500(
        self, circuit_payloads, monkeypatch
    ):
        app = faulty_app(monkeypatch, FaultPlan({0: Fault("raise")}))
        response = asyncio.run(apost(app, "/compile", circuit_payloads["mig"]))
        assert response.status == 500
        error = response.json()["error"]
        assert error["code"] == "internal-error"
        assert error["error_type"] == "InjectedFault"


class TestDeadline:
    def test_pooled_timeout_is_504(self, circuit_payloads, monkeypatch):
        # the injected sleep (fires on every attempt) blows the 0.5s
        # per-attempt deadline; the supervisor kills the worker and the
        # client sees a structured 504 long before the sleep would end
        app = faulty_app(
            monkeypatch, sleep_plan(30.0), pooled=True, request_timeout_s=0.5
        )
        response = asyncio.run(apost(app, "/compile", circuit_payloads["mig"]))
        assert response.status == 504
        assert response.json()["error"]["code"] == "timeout"

    def test_unpooled_timeout_is_504(self, circuit_payloads, monkeypatch):
        # a deadline pools the compile without --pooled: the overdue
        # worker is killed, so the deadline holds on the default server too
        app = faulty_app(monkeypatch, sleep_plan(30.0), request_timeout_s=0.5)
        response = asyncio.run(apost(app, "/compile", circuit_payloads["mig"]))
        assert response.status == 504
        assert response.json()["error"]["code"] == "timeout"

    @pytest.mark.parametrize("timeout_s", [float("inf"), float("nan"), 0])
    def test_unrunnable_deadline_fails_at_construction(self, timeout_s):
        # the pool cannot wait an infinite deadline; refuse it at startup
        # instead of answering every request with a 500
        with pytest.raises(ReproError, match="timeout_s"):
            ServerConfig(pooled=True, request_timeout_s=timeout_s)


class TestQueueFull:
    def test_shed_with_retry_after(
        self, circuit_payloads, other_mig_text, monkeypatch
    ):
        app = faulty_app(monkeypatch, sleep_plan(2.0), queue_limit=1)

        async def main():
            slow = asyncio.ensure_future(
                apost(app, "/compile", circuit_payloads["mig"])
            )
            # deterministic hand-off: wait until the slow leader holds
            # its admission slot before submitting the second circuit
            while app._admitted < 1:
                await asyncio.sleep(0.01)
            shed = await apost(
                app, "/compile", {"circuit": other_mig_text, "format": "mig"}
            )
            return shed, await slow

        shed, slow = asyncio.run(main())
        assert shed.status == 429
        error = shed.json()["error"]
        assert error["code"] == "queue-full"
        assert error["retry_after"] == RETRY_AFTER_S
        assert ("Retry-After", f"{RETRY_AFTER_S:g}") in shed.headers
        assert app.counters["shed"] == 1
        # the slow request itself still finished fine
        assert slow.status == 200


class TestDrain:
    def test_draining_rejects_new_work_finishes_inflight(
        self, circuit_payloads, other_mig_text, monkeypatch
    ):
        app = faulty_app(monkeypatch, sleep_plan(0.5), queue_limit=8)

        async def main():
            inflight = asyncio.ensure_future(
                apost(app, "/compile", circuit_payloads["mig"])
            )
            while app._admitted < 1:
                await asyncio.sleep(0.01)
            app.begin_drain()
            rejected_compile = await apost(
                app, "/compile", {"circuit": other_mig_text, "format": "mig"}
            )
            rejected_job = await apost(
                app,
                "/jobs",
                {
                    "kind": "cost-loop",
                    "circuit": other_mig_text,
                    "format": "mig",
                },
            )
            health = await aget(app, "/healthz")
            finished = await inflight
            await asyncio.wait_for(app.drained(), timeout=10)
            return rejected_compile, rejected_job, health, finished

        rejected_compile, rejected_job, health, finished = asyncio.run(main())
        assert rejected_compile.status == 503
        assert rejected_compile.json()["error"]["code"] == "draining"
        assert rejected_job.status == 503
        # reads stay up during the drain; the health answer says draining
        assert health.status == 200
        assert health.json()["draining"] is True
        # the in-flight request ran to completion despite the drain
        assert finished.status == 200
        assert app._admitted == 0
