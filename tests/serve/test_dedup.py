"""Concurrent request dedup: N identical submissions, one compile.

The contract under test (the tentpole's headline behavior): concurrent
identical submissions collapse onto one in-flight job whose response
fans out *byte-identical* to every waiter, and distinct circuits (or
distinct options) never share a dedup group.
"""

from __future__ import annotations

import asyncio

from .conftest import apost, make_app, run_concurrent


class TestIdenticalCollapse:
    def test_n_identical_one_compile(self, circuit_payloads):
        app = make_app(workers=2, queue_limit=32)
        payload = circuit_payloads["mig"]

        async def main():
            return await asyncio.gather(
                *[apost(app, "/compile", payload) for _ in range(10)]
            )

        responses = run_concurrent(main())
        assert all(r.status == 200 for r in responses)
        # exactly one compile ran...
        assert app.counters["compiles"] == 1
        assert app.dedup.leaders == 1
        assert app.dedup.collapsed == 9
        # ...and every waiter got the leader's exact bytes
        assert len({r.body for r in responses}) == 1
        assert responses[0].json()["cached"] is False

    def test_collapse_under_tiny_queue(self, circuit_payloads):
        # 10 identical requests against queue_limit=1: followers join the
        # leader *before* admission, so dedup absorbs what shedding would
        # otherwise reject — zero 429s for an identical burst
        app = make_app(workers=1, queue_limit=1)
        payload = circuit_payloads["mig"]

        async def main():
            return await asyncio.gather(
                *[apost(app, "/compile", payload) for _ in range(10)]
            )

        responses = run_concurrent(main())
        assert [r.status for r in responses] == [200] * 10
        assert app.counters["shed"] == 0
        assert app.counters["compiles"] == 1


class TestSynchronousJoin:
    """The join happens before any await — pinned via its observable
    consequences: parse errors share a group, and the collapse counts
    hold under repeated bursts with no executor-sizing assistance."""

    def test_parse_error_fans_out_to_followers(self):
        # followers join on the raw payload before the leader parses, so
        # an unparseable burst costs one parse and one structured 422,
        # fanned out byte-identical — not five independent parses
        app = make_app(workers=2, queue_limit=32)
        payload = {"circuit": "garbage\n", "format": "mig"}

        async def main():
            return await asyncio.gather(
                *[apost(app, "/compile", payload) for _ in range(5)]
            )

        responses = run_concurrent(main())
        assert [r.status for r in responses] == [422] * 5
        assert app.dedup.leaders == 1
        assert app.dedup.collapsed == 4
        assert len({r.body for r in responses}) == 1
        assert responses[0].json()["error"]["code"] == "parse-error"

    def test_collapse_is_deterministic_across_bursts(self, circuit_payloads):
        # the regression this suite exists for: burst collapse must not
        # depend on executor scheduling.  The cold burst yields exactly
        # one leader and seven followers; warm bursts are answered from
        # the cache (the fingerprint memo) and never form a dedup group.
        app = make_app(workers=2, queue_limit=32)
        payload = circuit_payloads["mig"]

        for burst in range(1, 4):
            async def main():
                return await asyncio.gather(
                    *[apost(app, "/compile", payload) for _ in range(8)]
                )

            responses = run_concurrent(main())
            assert all(r.status == 200 for r in responses)
            assert len({r.body for r in responses}) == 1
            assert app.counters["compiles"] == 1
            assert app.dedup.leaders == 1
            assert app.dedup.collapsed == 7
            assert app.counters["cache_answers"] == 8 * (burst - 1)

    def test_textual_variants_get_separate_groups(self, circuit_payloads):
        # dedup identity is the exact payload: the same circuit with a
        # trailing blank line is a different group (the fingerprint-keyed
        # cache, not the dedup table, unifies semantic duplicates)
        app = make_app(workers=2, queue_limit=32)
        a = circuit_payloads["mig"]
        b = {"circuit": a["circuit"] + "\n", "format": "mig"}

        async def main():
            return await asyncio.gather(
                apost(app, "/compile", a), apost(app, "/compile", b)
            )

        responses = run_concurrent(main())
        assert [r.status for r in responses] == [200, 200]
        assert app.dedup.leaders == 2
        assert app.dedup.collapsed == 0


class TestNoCrossTalk:
    def test_distinct_circuits_compile_separately(
        self, circuit_payloads, other_mig_text
    ):
        app = make_app(workers=2, queue_limit=32)
        a = circuit_payloads["mig"]
        b = {"circuit": other_mig_text, "format": "mig"}

        async def main():
            return await asyncio.gather(
                *[apost(app, "/compile", a) for _ in range(4)],
                *[apost(app, "/compile", b) for _ in range(4)],
            )

        responses = run_concurrent(main())
        assert all(r.status == 200 for r in responses)
        assert app.counters["compiles"] == 2
        assert app.dedup.leaders == 2
        a_bodies = {r.body for r in responses[:4]}
        b_bodies = {r.body for r in responses[4:]}
        assert len(a_bodies) == 1 and len(b_bodies) == 1
        assert a_bodies != b_bodies
        names = {r.json()["name"] for r in responses}
        assert len(names) == 2 and "ctrl" in names

    def test_distinct_options_compile_separately(self, circuit_payloads):
        app = make_app(workers=2, queue_limit=32)
        size = dict(circuit_payloads["mig"])
        depth = dict(circuit_payloads["mig"], options={"objective": "depth"})

        async def main():
            return await asyncio.gather(
                *[apost(app, "/compile", size) for _ in range(3)],
                *[apost(app, "/compile", depth) for _ in range(3)],
            )

        responses = run_concurrent(main())
        assert all(r.status == 200 for r in responses)
        assert app.counters["compiles"] == 2

    def test_sequential_requests_do_not_dedup(self, circuit_payloads):
        # dedup is an *in-flight* mechanism: the second sequential request
        # is answered by the cache, not by a dedup join
        app = make_app()
        payload = circuit_payloads["mig"]

        async def main():
            first = await apost(app, "/compile", payload)
            second = await apost(app, "/compile", payload)
            return first, second

        first, second = asyncio.run(main())
        assert app.dedup.collapsed == 0
        assert first.json()["cached"] is False
        assert second.json()["cached"] is True
