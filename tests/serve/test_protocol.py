"""Protocol vocabulary tests: shapes, validation, golden error bytes."""

from __future__ import annotations

import json

import pytest

from repro.serve.protocol import (
    FORMATS,
    ProtocolError,
    Request,
    canonical_json,
    circuit_key,
    compile_options,
    dedup_key,
    error_response,
    options_token,
    parse_circuit,
    request_class,
)


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'

    def test_key_order_invariant(self):
        # two dicts with different insertion orders → identical bytes —
        # the property the dedup fan-out and golden tests stand on
        assert canonical_json({"x": 1, "y": 2}) == canonical_json({"y": 2, "x": 1})


class TestRequestJson:
    def test_parses_object(self):
        assert Request("POST", "/compile", b'{"a": 1}').json() == {"a": 1}

    @pytest.mark.parametrize(
        "body", [b"", b"not json", b"[1,2]", b'"string"', b"\xff\xfe"]
    )
    def test_rejects_non_object_bodies(self, body):
        with pytest.raises(ProtocolError) as excinfo:
            Request("POST", "/compile", body).json()
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-request"


class TestErrorGoldenBytes:
    """Error bodies are part of the wire contract — pinned exactly."""

    def test_plain_error(self):
        response = error_response(404, "not-found", "no such endpoint: /x")
        assert response.status == 404
        assert response.body == (
            b'{"error":{"code":"not-found","message":"no such endpoint: /x"}}'
        )

    def test_queue_full_with_retry_after(self):
        response = error_response(
            429,
            "queue-full",
            "admission queue is full (8 in flight)",
            headers=(("Retry-After", "1"),),
            retry_after=1.0,
        )
        assert response.headers == (("Retry-After", "1"),)
        assert response.body == (
            b'{"error":{"code":"queue-full",'
            b'"message":"admission queue is full (8 in flight)",'
            b'"retry_after":1.0}}'
        )

    def test_protocol_error_round_trip(self):
        error = ProtocolError(504, "timeout", "deadline exceeded", attempts=2)
        response = error.response()
        assert response.status == 504
        assert response.json() == {
            "error": {
                "code": "timeout",
                "message": "deadline exceeded",
                "attempts": 2,
            }
        }


class TestParseCircuit:
    def test_every_format_parses(self, circuit_payloads, ctrl_mig):
        fingerprints = {}
        for fmt, payload in circuit_payloads.items():
            mig = parse_circuit(payload)
            assert mig.num_pos == ctrl_mig.num_pos
            fingerprints[fmt] = mig.fingerprint()
        # same-format determinism (the dedup identity): parsing twice
        # gives the same fingerprint
        again = parse_circuit(circuit_payloads["mig"])
        assert again.fingerprint() == fingerprints["mig"]

    def test_unknown_format(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_circuit({"circuit": "x", "format": "verilog"})
        assert excinfo.value.code == "unsupported-format"

    @pytest.mark.parametrize("fmt", [["aig"], {"mig": 1}, 1, None])
    def test_non_string_format_is_unsupported(self, fmt):
        # an unhashable format used to escape as a 500 TypeError
        with pytest.raises(ProtocolError) as excinfo:
            parse_circuit({"circuit": "x", "format": fmt})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "unsupported-format"

    def test_circuit_and_b64_are_exclusive(self, mig_text):
        with pytest.raises(ProtocolError) as excinfo:
            parse_circuit(
                {"circuit": mig_text, "circuit_b64": "aGk=", "format": "mig"}
            )
        assert excinfo.value.code == "bad-request"
        with pytest.raises(ProtocolError):
            parse_circuit({"format": "mig"})

    def test_binary_format_requires_b64(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_circuit({"circuit": "aig 1 1 0 1 0", "format": "aig"})
        assert excinfo.value.code == "bad-request"

    def test_invalid_base64(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_circuit({"circuit_b64": "!!!", "format": "aig"})
        assert excinfo.value.code == "bad-request"

    def test_reader_parse_error_is_422(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_circuit({"circuit": "garbage\n", "format": "mig"})
        assert excinfo.value.status == 422
        assert excinfo.value.code == "parse-error"

    def test_text_via_b64_allowed_for_ascii_formats(self, mig_text):
        import base64

        payload = {
            "circuit_b64": base64.b64encode(mig_text.encode()).decode(),
            "format": "mig",
        }
        assert parse_circuit(payload).fingerprint() == parse_circuit(
            {"circuit": mig_text, "format": "mig"}
        ).fingerprint()

    def test_formats_table_matches_cli_readers(self):
        from repro.cli import READERS

        assert set(FORMATS.values()) == set(READERS)


class TestOptionValidation:
    def test_defaults_fill_in(self):
        assert compile_options({}) == {
            "rewrite": True,
            "effort": 4,
            "engine": "worklist",
            "objective": "size",
        }

    def test_token_is_canonical(self):
        a = compile_options({"options": {"effort": 2, "objective": "depth"}})
        b = compile_options({"options": {"objective": "depth", "effort": 2}})
        assert options_token(a) == options_token(b)

    def test_effort_zero_is_accepted(self):
        """One error contract: the server accepts what ``RewriteOptions``
        accepts (``plimc compile --effort 0`` runs no cycle, and so does
        ``"effort": 0``)."""
        assert compile_options({"options": {"effort": 0}})["effort"] == 0

    @pytest.mark.parametrize(
        "options",
        [
            {"effort": -1},
            {"effort": "high"},
            # bool sneaks through a bare isinstance(int) check — it must
            # not validate (nor mint a "true" options token distinct
            # from 1 that flows into RewriteOptions as a bool)
            {"effort": True},
            {"rewrite": "yes"},
            {"engine": "magic"},
            {"objective": "speed"},
            {"objective": ["size"]},
            {"bogus": 1},
        ],
    )
    def test_bad_options_rejected(self, options):
        with pytest.raises(ProtocolError) as excinfo:
            compile_options({"options": options})
        assert excinfo.value.status == 400

    def test_request_class(self):
        assert request_class({}) == "interactive"
        assert request_class({"class": "batch"}) == "batch"
        with pytest.raises(ProtocolError):
            request_class({"class": "realtime"})


class TestDedupKey:
    """The raw-payload dedup identity — synchronous by construction."""

    def test_identical_payloads_share_a_key(self, mig_text):
        options = compile_options({})
        a = dedup_key({"circuit": mig_text, "format": "mig"}, options)
        # irrelevant payload fields (class, options spelled elsewhere)
        # don't perturb the key; the options dict does
        b = dedup_key(
            {"circuit": mig_text, "format": "mig", "class": "batch"}, options
        )
        assert a == b

    def test_distinct_text_or_options_split(self, mig_text):
        base = compile_options({})
        depth = compile_options({"options": {"objective": "depth"}})
        key = dedup_key({"circuit": mig_text, "format": "mig"}, base)
        assert key != dedup_key(
            {"circuit": mig_text + "\n", "format": "mig"}, base
        )
        assert key != dedup_key({"circuit": mig_text, "format": "mig"}, depth)
        assert key != dedup_key({"circuit": mig_text, "format": "blif"}, base)

    def test_unrewritten_requests_ignore_rewrite_settings(self, mig_text):
        """A compile with rewriting off never reads effort, engine or
        objective, so spelling them differently must not split its dedup
        group — while invalid values are still refused."""
        payload = {"circuit": mig_text, "format": "mig"}
        spellings = [
            {"rewrite": False},
            {"rewrite": False, "effort": 1},
            {"rewrite": False, "effort": 2, "objective": "depth"},
            {"rewrite": False, "engine": "worklist", "objective": "plim"},
        ]
        keys = {
            dedup_key(payload, compile_options({"options": options}))
            for options in spellings
        }
        assert len(keys) == 1
        assert keys != {dedup_key(payload, compile_options({}))}
        for bad in ({"effort": -1}, {"engine": "magic"}, {"objective": "speed"}):
            with pytest.raises(ProtocolError) as excinfo:
                compile_options({"options": {"rewrite": False, **bad}})
            assert excinfo.value.status == 400

    def test_key_needs_no_parse(self):
        # garbage circuits still key fine — the whole point is that the
        # join can happen before (and regardless of) parsing
        options = compile_options({})
        key = dedup_key({"circuit": "garbage\n", "format": "mig"}, options)
        assert key == dedup_key({"circuit": "garbage\n", "format": "mig"}, options)

    def test_key_is_circuit_key_plus_options_token(self, mig_text):
        options = compile_options({})
        payload = {"circuit": mig_text}
        assert dedup_key(payload, options) == (
            f"{circuit_key(payload)}|{options_token(options)}"
        )
        # the format default is parse_circuit's
        assert circuit_key(payload) == circuit_key(dict(payload, format="mig"))
        assert circuit_key(payload) != circuit_key(dict(payload, format="blif"))
