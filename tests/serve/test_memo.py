"""The fingerprint memo: a repeated ``POST /compile`` costs a lookup.

The server remembers the fingerprint of every circuit it parsed, keyed
on the exact request bytes (:func:`~repro.serve.protocol.circuit_key`).
A repeat whose compilation is cached is answered on the event loop with
no parse, no fingerprint and no executor hop; everything else — new
bytes, new options, an evicted cache entry — takes the full path.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import protocol
from repro.serve.app import FINGERPRINT_MEMO_CAPACITY, FingerprintMemo
from repro.serve.protocol import canonical_json

from .conftest import apost, get, make_app, post
from .test_faults import sleep_plan


@pytest.fixture
def parses(monkeypatch):
    """Counts calls of ``protocol.parse_circuit`` (the server's only
    circuit reader); the list holds one entry per call."""
    calls = []
    real = protocol.parse_circuit

    def counting(payload):
        calls.append(payload)
        return real(payload)

    monkeypatch.setattr(protocol, "parse_circuit", counting)
    return calls


class TestHitPath:
    def test_repeat_skips_the_parse(self, circuit_payloads, parses):
        app = make_app()
        payload = circuit_payloads["mig"]
        first = post(app, "/compile", payload)
        second = post(app, "/compile", payload)
        assert len(parses) == 1
        assert first.json()["cached"] is False
        assert second.body == canonical_json({**first.json(), "cached": True})
        assert app.counters["cache_answers"] == 1
        assert app.fingerprints.stats()["hits"] == 1
        # the hit never formed a dedup group
        assert app.dedup.leaders == 1

    def test_parse_errors_are_never_memoized(self, parses):
        app = make_app()
        payload = {"circuit": "garbage\n", "format": "mig"}
        responses = [post(app, "/compile", payload) for _ in range(2)]
        assert [r.status for r in responses] == [422, 422]
        assert responses[0].body == responses[1].body
        assert len(parses) == 2
        assert app.fingerprints.stats()["size"] == 0

    def test_cleared_cache_recompiles_the_same_program(
        self, circuit_payloads, parses
    ):
        app = make_app()
        payload = circuit_payloads["mig"]
        first = post(app, "/compile", payload).json()
        app.cache.clear()
        again = post(app, "/compile", payload).json()
        assert again["cached"] is False
        assert again["program"] == first["program"]
        assert app.counters["compiles"] == 2
        # the memo hit found no cache entry, so the full path parsed again
        assert len(parses) == 2
        assert app.fingerprints.stats()["hits"] == 1

    def test_new_options_compile_instead_of_hitting(
        self, circuit_payloads, parses
    ):
        app = make_app()
        payload = circuit_payloads["mig"]
        rewritten = post(app, "/compile", payload).json()
        plain = post(
            app, "/compile", dict(payload, options={"rewrite": False})
        ).json()
        assert plain["cached"] is False
        assert plain["program"] != rewritten["program"]
        assert app.counters["compiles"] == 2
        assert len(parses) == 2

    def test_encodings_are_two_entries_over_one_cache_entry(
        self, circuit_payloads, parses
    ):
        app = make_app()
        aag, aig = circuit_payloads["aag"], circuit_payloads["aig"]
        first = post(app, "/compile", aag)
        other = post(app, "/compile", aig)
        assert first.json()["cached"] is False
        assert other.json()["cached"] is True  # the fingerprint unifies them
        assert app.fingerprints.stats()["size"] == 2
        assert len(parses) == 2
        repeats = [post(app, "/compile", aag), post(app, "/compile", aig)]
        assert len(parses) == 2
        assert app.fingerprints.stats()["hits"] == 2
        assert {r.body for r in repeats} == {other.body}
        assert app.counters["compiles"] == 1


class TestAdmission:
    def test_draining_server_refuses_a_memo_hit(self, circuit_payloads):
        app = make_app()
        payload = circuit_payloads["mig"]
        post(app, "/compile", payload)
        app.begin_drain()
        response = post(app, "/compile", payload)
        assert response.status == 503
        assert response.json()["error"]["code"] == "draining"
        assert app.fingerprints.stats()["hits"] == 1
        assert app._admitted == 0

    def test_full_queue_sheds_a_memo_hit(self, circuit_payloads, other_mig_text):
        app = make_app(queue_limit=1, fault_plan=sleep_plan(0.3))
        warm = circuit_payloads["mig"]

        async def main():
            await apost(app, "/compile", warm)
            slow = asyncio.ensure_future(
                apost(app, "/compile", {"circuit": other_mig_text, "format": "mig"})
            )
            while app._admitted < 1:
                await asyncio.sleep(0.01)
            shed = await apost(app, "/compile", warm)
            return shed, await slow

        shed, slow = asyncio.run(main())
        assert shed.status == 429
        assert shed.json()["error"]["code"] == "queue-full"
        assert slow.status == 200
        assert app._admitted == 0

    def test_key_in_flight_follows_its_leader(self, circuit_payloads):
        # the leader has parsed (memo filled) and holds the only admission
        # slot while it compiles: a repeat joins it instead of shedding
        app = make_app(queue_limit=1, fault_plan=sleep_plan(0.3))
        payload = circuit_payloads["mig"]

        async def main():
            leader = asyncio.ensure_future(apost(app, "/compile", payload))
            while app._admitted < 1:
                await asyncio.sleep(0.01)
            follower = await apost(app, "/compile", payload)
            return await leader, follower

        leader, follower = asyncio.run(main())
        assert leader.status == follower.status == 200
        assert leader.body == follower.body
        assert app.dedup.collapsed == 1
        assert app.counters["shed"] == 0


class TestBound:
    def test_stats_block(self):
        memo = get(make_app(), "/stats").json()["fingerprint_memo"]
        assert memo == {
            "size": 0,
            "capacity": FINGERPRINT_MEMO_CAPACITY,
            "hits": 0,
            "evictions": 0,
        }

    def test_overfilled_memo_evicts_least_recent(self, mig_text, parses):
        app = make_app()
        app.fingerprints = FingerprintMemo(capacity=2)
        # textual variants of one circuit: three memo entries, one compile
        variants = [
            {"circuit": mig_text + "\n" * k, "format": "mig"} for k in range(3)
        ]
        for payload in variants:
            assert post(app, "/compile", payload).status == 200
        memo = get(app, "/stats").json()["fingerprint_memo"]
        assert memo["size"] <= memo["capacity"] == 2
        assert memo["evictions"] == 1
        assert len(parses) == 3
        # the oldest variant was evicted: it parses again, still a cache hit
        again = post(app, "/compile", variants[0])
        assert again.json()["cached"] is True
        assert len(parses) == 4
        assert app.counters["compiles"] == 1

    def test_lookup_refreshes_recency(self):
        memo = FingerprintMemo(capacity=2)
        memo.put("a", "fa")
        memo.put("b", "fb")
        assert memo.get("a") == "fa"
        memo.put("c", "fc")
        assert memo.get("b") is None
        assert (memo.get("a"), memo.get("c")) == ("fa", "fc")
        assert memo.stats() == {
            "size": 2, "capacity": 2, "hits": 3, "evictions": 1,
        }
