"""Golden request/response round-trips for every endpoint and format.

The compile responses are pinned against the library ground truth:
:func:`repro.core.pipeline.compile_mig` run directly on the re-parsed
circuit must produce byte-for-byte the record the server returns —
the server is a transport, never a different compiler.
"""

from __future__ import annotations

import json

from repro.core.pipeline import compile_mig
from repro.serve.protocol import canonical_json, parse_circuit
from repro.serve.worker import build_record, request_option_sets

from .conftest import get, make_app, post


#: per-stage wall-clock fields: genuinely nondeterministic, so record
#: comparisons normalize them away (their presence is still asserted)
TIMING_FIELDS = (
    "rewrite_seconds", "schedule_seconds", "translate_seconds", "verify_seconds",
)


def sans_timings(record: dict) -> dict:
    """``record`` with the (nondeterministic) timing fields removed,
    after checking they are present and sane."""
    out = dict(record)
    for fld in TIMING_FIELDS:
        value = out.pop(fld)
        assert isinstance(value, float) and value >= 0.0, (fld, value)
    return out


def expected_compile_body(payload: dict, options: dict = None) -> bytes:
    """The ground-truth response bytes for a compile request, with the
    timing fields normalized away (compare via :func:`normalized_body`)."""
    from repro.serve.protocol import compile_options

    normalized = compile_options({"options": options} if options else {})
    mig = parse_circuit(payload)
    ropts, copts = request_option_sets(normalized)
    result = compile_mig(
        mig,
        rewrite=normalized["rewrite"],
        rewrite_options=ropts,
        compiler_options=copts,
    )
    record = sans_timings(build_record(mig.name, result))
    return canonical_json({**record, "cached": False})


def normalized_body(response) -> bytes:
    """The response's bytes re-canonicalized without the timing fields —
    byte-comparable against :func:`expected_compile_body`."""
    return canonical_json(sans_timings(response.json()))


class TestHealthz:
    def test_ok(self):
        app = make_app()
        response = get(app, "/healthz")
        assert response.status == 200
        assert response.body == b'{"draining":false,"status":"ok"}'


class TestCompileRoundTrips:
    def test_every_format_matches_direct_pipeline(self, circuit_payloads):
        # fresh app per format: aag and aig decode to the *same* AIG
        # decomposition (same fingerprint), so a shared app would
        # legitimately answer the second from cache
        for fmt, payload in circuit_payloads.items():
            app = make_app()
            response = post(app, "/compile", payload)
            assert response.status == 200, (fmt, response.body)
            assert normalized_body(response) == expected_compile_body(payload), fmt
            body = response.json()
            assert body["cached"] is False
            assert body["num_gates"] > 0
            assert body["num_instructions"] > 0
            assert body["program"].strip()
            assert body["mig"].startswith(".mig")

    def test_second_request_is_cache_answered(self, circuit_payloads):
        app = make_app()
        payload = circuit_payloads["mig"]
        first = post(app, "/compile", payload).json()
        second = post(app, "/compile", payload).json()
        assert first["cached"] is False
        assert second["cached"] is True
        # identical answer apart from the cached flag
        first["cached"] = second["cached"]
        assert first == second
        assert app.counters["compiles"] == 1
        assert app.counters["cache_answers"] == 1

    def test_options_change_the_answer_identity(self, circuit_payloads):
        app = make_app()
        payload = dict(circuit_payloads["mig"])
        post(app, "/compile", payload)
        depth = dict(payload, options={"objective": "depth"})
        response = post(app, "/compile", depth)
        assert response.status == 200
        # different options ⇒ different cache identity ⇒ a real compile
        assert response.json()["cached"] is False
        assert app.counters["compiles"] == 2

    def test_every_objective_matches_direct_pipeline(self, other_mig_text):
        """A guided objective stores several rewrites in one compile (on
        ``int2float`` they differ); the record's ``.mig`` text must be
        the one of the graph it compiled."""
        circuit = {"circuit": other_mig_text, "format": "mig"}
        for objective in ("depth", "plim"):
            options = {"objective": objective}
            response = post(make_app(), "/compile", dict(circuit, options=options))
            assert response.status == 200, (objective, response.body)
            assert normalized_body(response) == expected_compile_body(
                circuit, options
            ), objective

    def test_rewrite_false(self, circuit_payloads):
        payload = dict(circuit_payloads["mig"], options={"rewrite": False})
        response = post(make_app(), "/compile", payload)
        assert response.status == 200
        assert normalized_body(response) == expected_compile_body(
            circuit_payloads["mig"], {"rewrite": False}
        )


class TestCacheStatsEndpoint:
    def test_shape_and_consistency(self, circuit_payloads):
        app = make_app()
        post(app, "/compile", circuit_payloads["mig"])
        post(app, "/compile", circuit_payloads["mig"])
        snapshot = get(app, "/cache/stats").json()
        counters = snapshot["counters"]
        assert set(counters) >= {
            "hits", "misses", "stores", "evictions", "errors",
            "lookups", "hit_rate",
        }
        assert counters["lookups"] == counters["hits"] + counters["misses"]
        assert 0.0 <= counters["hit_rate"] <= 1.0
        assert counters["hits"] >= 1  # the second request's answer
        assert snapshot["memory"]["entries"] >= 1

    def test_matches_cli_snapshot_shape(self, tmp_path):
        # the CLI --json path and the endpoint serve the same snapshot
        from repro.core.cache import SynthesisCache

        app = make_app(cache_dir=str(tmp_path / "c"))
        endpoint = get(app, "/cache/stats").json()
        cli_view = SynthesisCache(str(tmp_path / "c")).stats_snapshot()
        assert set(endpoint) == set(cli_view)
        assert set(endpoint["counters"]) == set(cli_view["counters"])


class TestServerStats:
    def test_counters_track_requests(self, circuit_payloads):
        app = make_app()
        post(app, "/compile", circuit_payloads["mig"])
        stats = get(app, "/stats").json()
        assert stats["counters"]["requests"] >= 2  # compile + this stats call
        assert stats["counters"]["compiles"] == 1
        assert stats["admitted"] == 0
        assert stats["draining"] is False
        assert stats["dedup"]["inflight"] == 0


class TestErrorPaths:
    def test_unknown_endpoint(self):
        response = get(make_app(), "/nope")
        assert response.status == 404
        assert response.json()["error"]["code"] == "not-found"

    def test_method_not_allowed(self):
        response = post(make_app(), "/healthz", {"x": 1})
        assert response.status == 405
        assert response.json()["error"]["code"] == "method-not-allowed"

    def test_get_compile_not_allowed(self):
        assert get(make_app(), "/compile").status == 405

    def test_bad_json_body(self):
        response = post(make_app(), "/compile", body=b"{broken")
        assert response.status == 400
        assert response.json()["error"]["code"] == "bad-request"

    def test_parse_error_is_422(self):
        response = post(
            make_app(), "/compile", {"circuit": "junk\n", "format": "mig"}
        )
        assert response.status == 422
        assert response.json()["error"]["code"] == "parse-error"

    def test_malformed_aag_is_422_with_line(self):
        # a non-numeric AND field once escaped the reader as a bare
        # ValueError and answered 500 internal-error
        payload = {"circuit": "aag 3 2 0 1 1\n2\n4\n6\n6 2 x\n", "format": "aag"}
        response = post(make_app(), "/compile", payload)
        assert response.status == 422
        error = response.json()["error"]
        assert error["code"] == "parse-error"
        assert "line 5" in error["message"]

    def test_duplicate_output_names_are_422(self):
        # two outputs named f (a∧b and its complement) once answered 200
        # with a one-output program
        circuit = "aag 3 2 0 2 1\n2\n4\n6\n7\n6 2 4\ni0 a\ni1 b\no0 f\no1 f\n"
        response = post(make_app(), "/compile", {"circuit": circuit, "format": "aag"})
        assert response.status == 422
        error = response.json()["error"]
        assert error["code"] == "task-error"
        assert "duplicate output name 'f'" in error["message"]

    def test_payload_too_large(self, circuit_payloads):
        app = make_app(max_body_bytes=64)
        response = post(app, "/compile", circuit_payloads["mig"])
        assert response.status == 413
        assert response.json()["error"]["code"] == "payload-too-large"

    def test_query_strings_are_ignored_in_routing(self):
        assert get(make_app(), "/healthz?verbose=1").status == 200
