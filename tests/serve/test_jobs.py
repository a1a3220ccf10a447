"""The job model: 202 + id now, streamed progress until the result.

Long work (``pareto``, ``cost-loop``) never holds a request open: the
server answers with a job id immediately, runs the sweep off-loop
against a read-only cache view, and feeds every completed point/step
into the job's progress list via the drivers' ``progress=`` callbacks —
``GET /jobs/<id>`` polls a consistent snapshot at any moment.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from .conftest import aget, apost, make_app, poll_job


def job_payload(mig_text: str, kind: str, **params) -> dict:
    return {
        "kind": kind,
        "circuit": mig_text,
        "format": "mig",
        "params": params,
    }


class TestCostLoopJobs:
    def test_lifecycle_and_progress(self, mig_text):
        app = make_app()

        async def main():
            submitted = await apost(
                app,
                "/jobs",
                job_payload(mig_text, "cost-loop", effort=1, max_iterations=1),
            )
            assert submitted.status == 202
            body = submitted.json()
            assert body["job_id"] == "job-1"
            assert body["deduplicated"] is False
            return await poll_job(app, body["job_id"])

        snapshot = asyncio.run(main())
        assert snapshot["state"] == "done"
        assert snapshot["error"] is None
        result = snapshot["result"]
        assert result["iterations"] >= 1
        assert result["num_instructions"] > 0
        assert set(result["baseline"]) == set(result["final"])
        # the audit trail streamed: baseline step + one per candidate
        assert len(snapshot["progress"]) >= 2
        assert snapshot["progress"][0]["variant"] == "input"
        assert all(
            set(row) == {"iteration", "variant", "accepted", "metrics"}
            for row in snapshot["progress"]
        )


class TestParetoJobs:
    def test_lifecycle_and_progress(self, mig_text):
        app = make_app()

        async def main():
            submitted = await apost(
                app,
                "/jobs",
                job_payload(mig_text, "pareto", effort=2, max_points=1),
            )
            assert submitted.status == 202
            return await poll_job(app, submitted.json()["job_id"])

        snapshot = asyncio.run(main())
        assert snapshot["state"] == "done"
        front = snapshot["result"]
        assert front["circuit"] == "ctrl"
        assert len(front["points"]) >= 1
        assert front["incomplete"] is False
        # one progress row per computed point (both anchors at minimum)
        assert len(snapshot["progress"]) >= 2
        labels = {row["label"] for row in snapshot["progress"]}
        assert {"size", "depth"} <= labels


class TestJobDedup:
    def test_identical_inflight_submissions_share_a_job(self, mig_text):
        app = make_app()
        payload = job_payload(mig_text, "cost-loop", effort=1, max_iterations=1)

        async def main():
            first = await apost(app, "/jobs", payload)
            second = await apost(app, "/jobs", payload)
            done = await poll_job(app, first.json()["job_id"])
            # finished jobs leave the in-flight table: resubmitting now
            # creates a fresh job (whose compiles hit the shared cache)
            third = await apost(app, "/jobs", payload)
            return first.json(), second.json(), done, third.json()

        first, second, done, third = asyncio.run(main())
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"] is True
        assert done["state"] == "done"
        assert third["job_id"] != first["job_id"]
        assert third["deduplicated"] is False
        assert app.counters["jobs"] == 2  # two real jobs, one dedup join

    def test_distinct_params_get_distinct_jobs(self, mig_text):
        app = make_app()

        async def main():
            a = await apost(
                app,
                "/jobs",
                job_payload(mig_text, "cost-loop", effort=1, max_iterations=1),
            )
            b = await apost(
                app,
                "/jobs",
                job_payload(mig_text, "cost-loop", effort=1, max_iterations=2),
            )
            ids = (a.json()["job_id"], b.json()["job_id"])
            for job_id in ids:
                await poll_job(app, job_id)
            return ids

        a_id, b_id = asyncio.run(main())
        assert a_id != b_id


class TestJobValidationAndListing:
    def test_unknown_kind(self, mig_text):
        response = asyncio.run(
            apost(make_app(), "/jobs", job_payload(mig_text, "fuzz"))
        )
        assert response.status == 400
        assert response.json()["error"]["code"] == "bad-request"

    @pytest.mark.parametrize("kind", [["pareto"], {"kind": 1}, 3])
    def test_non_string_kind(self, mig_text, kind):
        # an unhashable kind used to escape as a 500 TypeError
        response = asyncio.run(
            apost(make_app(), "/jobs", job_payload(mig_text, kind))
        )
        assert response.status == 400
        assert response.json()["error"]["code"] == "bad-request"

    def test_unknown_params(self, mig_text):
        response = asyncio.run(
            apost(
                make_app(),
                "/jobs",
                job_payload(mig_text, "pareto", bogus=1),
            )
        )
        assert response.status == 400

    @pytest.mark.parametrize(
        ("kind", "params"),
        [
            ("cost-loop", {"max_iterations": "x"}),
            ("cost-loop", {"max_iterations": -1}),
            ("cost-loop", {"max_iterations": True}),
            ("cost-loop", {"max_iterations": None}),
            ("cost-loop", {"objective": "nope"}),
            ("cost-loop", {"objective": ["plim"]}),
            ("cost-loop", {"effort": -1}),
            ("cost-loop", {"effort": 1.5}),
            ("pareto", {"max_points": "x"}),
            ("pareto", {"max_points": -2}),
            ("pareto", {"max_points": False}),
            ("pareto", {"effort": True}),
            ("pareto", {"verify": "yes"}),
            ("pareto", {"verify": 1}),
        ],
    )
    def test_bad_params_refused_before_a_job_exists(self, mig_text, kind, params):
        """A param the job would only fail on (or misread) is a 400 at
        submission, like a compile's bad ``options`` — no job is made."""
        app = make_app()

        async def main():
            response = await apost(app, "/jobs", job_payload(mig_text, kind, **params))
            return response, (await aget(app, "/jobs")).json()

        response, listing = asyncio.run(main())
        assert response.status == 400, response.body
        assert response.json()["error"]["code"] == "bad-request"
        assert listing["jobs"] == [] and app.counters["jobs"] == 0

    def test_objective_and_effort_share_the_compile_check(self, mig_text):
        """``/jobs`` and ``/compile`` refuse a bad effort with the same
        message; a job takes no objective at all (the cost loop always
        measures the compiled program)."""
        app = make_app()
        bad = {"effort": -1}
        job = asyncio.run(apost(app, "/jobs", job_payload(mig_text, "cost-loop", **bad)))
        compile_ = asyncio.run(
            apost(app, "/compile", {"circuit": mig_text, "format": "mig", "options": bad})
        )
        assert job.status == compile_.status == 400
        assert job.json()["error"] == compile_.json()["error"]

    @pytest.mark.parametrize("objective", ["plim", "static-plim", "size"])
    def test_cost_loop_takes_no_objective(self, mig_text, objective):
        response = asyncio.run(
            apost(
                make_app(),
                "/jobs",
                job_payload(mig_text, "cost-loop", objective=objective),
            )
        )
        assert response.status == 400
        error = response.json()["error"]
        assert error["code"] == "bad-request"
        assert error["message"] == "unknown params for 'cost-loop' jobs: ['objective']"

    @pytest.mark.parametrize(
        ("kind", "params"),
        [
            ("pareto", {"max_points": None, "verify": True, "effort": 1}),
            ("pareto", {"max_points": 0, "effort": 1}),
            ("cost-loop", {"max_iterations": 0, "effort": 0}),
        ],
    )
    def test_edge_params_still_run(self, mig_text, kind, params):
        app = make_app()

        async def main():
            submitted = await apost(app, "/jobs", job_payload(mig_text, kind, **params))
            assert submitted.status == 202, submitted.body
            return await poll_job(app, submitted.json()["job_id"])

        assert asyncio.run(main())["state"] == "done"

    def test_missing_job_is_404(self):
        response = asyncio.run(aget(make_app(), "/jobs/job-99"))
        assert response.status == 404

    def test_listing(self, mig_text):
        app = make_app()

        async def main():
            submitted = await apost(
                app,
                "/jobs",
                job_payload(mig_text, "cost-loop", effort=1, max_iterations=1),
            )
            await poll_job(app, submitted.json()["job_id"])
            return (await aget(app, "/jobs")).json()

        listing = asyncio.run(main())
        assert listing["jobs"][0]["id"] == "job-1"
        assert listing["jobs"][0]["state"] == "done"
        assert listing["jobs"][0]["progress_rows"] >= 1


class TestFinishedJobRetention:
    def test_registry_evicts_oldest_finished(self):
        from repro.serve.jobs import JobRegistry

        registry = JobRegistry(max_finished=2)
        ids = []
        for index in range(4):
            job, created = registry.submit("pareto", f"key-{index}")
            assert created
            registry.start(job.id)
            registry.finish(job.id, {"n": index})
            ids.append(job.id)
        # the two oldest finished records are gone, the newest two remain
        assert registry.get(ids[0]) is None and registry.snapshot(ids[0]) is None
        assert registry.get(ids[1]) is None
        assert [s["id"] for s in registry.summaries()] == ids[2:]

    def test_running_jobs_never_evicted(self):
        from repro.serve.jobs import JobRegistry

        registry = JobRegistry(max_finished=1)
        pinned, _ = registry.submit("pareto", "key-pinned")
        registry.start(pinned.id)
        for index in range(3):
            job, _ = registry.submit("pareto", f"key-{index}")
            registry.start(job.id)
            registry.fail(job.id, {"code": "internal-error", "message": "x"})
        # the running job predates every finished one yet survives the cap
        assert registry.get(pinned.id) is not None
        assert registry.active_count() == 1
        assert sum(1 for s in registry.summaries() if s["state"] == "failed") == 1

    def test_evicted_job_is_404_end_to_end(self, mig_text):
        # a long-lived server must not grow memory per job served; the
        # price is that ancient job ids stop resolving — pinned here so
        # the 404 is a documented contract, not an accident
        app = make_app(max_finished_jobs=1)

        async def main():
            first = await apost(
                app,
                "/jobs",
                job_payload(mig_text, "cost-loop", effort=1, max_iterations=1),
            )
            first_id = first.json()["job_id"]
            await poll_job(app, first_id)
            second = await apost(
                app,
                "/jobs",
                job_payload(mig_text, "cost-loop", effort=1, max_iterations=2),
            )
            second_id = second.json()["job_id"]
            await poll_job(app, second_id)
            return first_id, second_id, (await aget(app, f"/jobs/{first_id}"))

        first_id, second_id, stale = asyncio.run(main())
        assert first_id != second_id
        assert stale.status == 404
        listing = asyncio.run(aget(app, "/jobs")).json()
        assert [j["id"] for j in listing["jobs"]] == [second_id]


class TestJobTimeout:
    def test_deadline_fails_the_job_with_structured_error(self, mig_text):
        app = make_app(job_timeout_s=0.001)
        job_body = app._job_body

        def slow_job_body(*args):
            # ctrl's cost loop can finish inside one GIL switch interval,
            # before the event loop gets to fire the 1 ms deadline; a
            # GIL-releasing sleep makes the job outlast it every time
            time.sleep(0.05)
            return job_body(*args)

        app._job_body = slow_job_body

        async def main():
            submitted = await apost(
                app,
                "/jobs",
                job_payload(mig_text, "cost-loop", effort=1, max_iterations=1),
            )
            return await poll_job(app, submitted.json()["job_id"])

        snapshot = asyncio.run(main())
        assert snapshot["state"] == "failed"
        assert snapshot["error"]["code"] == "timeout"
        # a timed-out job's report is frozen: the zombie thread's late
        # progress appends are dropped by the registry guard
        assert snapshot["result"] is None
