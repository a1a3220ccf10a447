"""Wire protocol of ``plimc serve``: request/response types and JSON shapes.

The server speaks JSON over HTTP, but every shape is defined here against
plain :class:`Request`/:class:`Response` values so the whole protocol is
testable in-process — the tier-1 harness in ``tests/serve/`` never opens a
socket.  Three invariants the tests pin down:

* **Canonical bodies.**  Every JSON body is serialized with
  :func:`canonical_json` (sorted keys, no whitespace), so two requests
  that deduplicate onto one in-flight compile receive *byte-identical*
  responses — the dedup layer fans out the leader's exact bytes.
* **Structured errors.**  Every failure path returns
  ``{"error": {"code", "message", ...}}`` with a stable ``code`` from
  the table below; clients switch on the code, never on the message.
* **Circuit ingestion mirrors the CLI.**  :func:`parse_circuit` accepts
  exactly the formats ``plimc compile`` does (it dispatches through the
  CLI's ``READERS`` table): ``mig``/``blif``/``aag`` as inline text,
  ``aig`` (binary AIGER) base64-encoded in ``circuit_b64``.

Error codes → HTTP status:

================== ======
``bad-request``    400
``unsupported-format`` 400
``payload-too-large``  413
``parse-error``    422
``task-error``     422
``queue-full``     429 (+ ``Retry-After`` header)
``request-timeout``    408
``internal-error`` 500
``worker-crash``   502
``draining``       503
``timeout``        504
``not-found``      404
``method-not-allowed`` 405
================== ======
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import io
import json
from dataclasses import dataclass, field

from repro.errors import ParseError, ReproError
from repro.mig.graph import Mig

#: HTTP reason phrases for the status codes the server emits (the http
#: layer refuses to send a status missing from this table, which keeps
#: handlers honest about the protocol surface).
STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: circuit formats accepted by :func:`parse_circuit`, mapped to the CLI
#: reader extension they dispatch to (``plimc``'s ``READERS`` table)
FORMATS = {
    "mig": ".mig",
    "blif": ".blif",
    "aag": ".aag",
    "aig": ".aig",
}

#: formats whose payload is inherently binary and must arrive base64
#: encoded in ``circuit_b64`` (ASCII formats may use either field)
BINARY_FORMATS = frozenset({"aig"})


def canonical_json(obj) -> bytes:
    """The one true byte serialization of a response body.

    Sorted keys and minimal separators make the encoding a pure function
    of the value, which is what lets the dedup layer promise
    byte-identical fan-out and the golden tests pin exact bodies.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class Request:
    """One protocol-level request (transport-independent).

    The http layer builds these from sockets; the in-process test client
    builds them directly.  ``headers`` keys are lower-case.
    """

    method: str
    path: str
    body: bytes = b""
    headers: dict = field(default_factory=dict)

    def json(self) -> dict:
        """The body parsed as a JSON object, or :class:`ProtocolError`."""
        if not self.body:
            raise ProtocolError(400, "bad-request", "request body must be JSON")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(
                400, "bad-request", f"invalid JSON body: {error}"
            ) from None
        if not isinstance(payload, dict):
            raise ProtocolError(
                400, "bad-request", "JSON body must be an object"
            )
        return payload


@dataclass(frozen=True)
class Response:
    """One protocol-level response: status, canonical body, extra headers.

    ``headers`` carries only the *extra* headers beyond the transport
    defaults (``Retry-After`` on 429 is the one that matters); the http
    layer adds ``Content-Type``/``Content-Length``.
    """

    status: int
    body: bytes
    headers: tuple = ()

    @staticmethod
    def ok(obj, status: int = 200) -> "Response":
        return Response(status, canonical_json(obj))

    def json(self) -> dict:
        """Parse the body back (test convenience)."""
        return json.loads(self.body.decode("utf-8"))


class ProtocolError(ReproError):
    """A request the server answers with a structured error body.

    Handlers raise these anywhere; the router converts them with
    :meth:`response`.  ``extra`` lands inside the ``"error"`` object
    (e.g. ``retry_after``), ``headers`` on the HTTP response.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        headers: tuple = (),
        **extra,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.extra = extra
        self.headers = headers

    def response(self) -> Response:
        return error_response(
            self.status, self.code, str(self), headers=self.headers, **self.extra
        )


def error_response(
    status: int, code: str, message: str, *, headers: tuple = (), **extra
) -> Response:
    """The structured error shape every failure path shares."""
    body = {"error": {"code": code, "message": message, **extra}}
    return Response(status, canonical_json(body), tuple(headers))


def parse_circuit(payload: dict) -> Mig:
    """Materialize the request's circuit through the CLI reader table.

    ``payload["format"]`` picks the reader; the circuit text rides in
    ``payload["circuit"]`` (inline text) or ``payload["circuit_b64"]``
    (base64, mandatory for binary ``aig``).  Raises
    :class:`ProtocolError` for protocol-level mistakes and maps reader
    :class:`~repro.errors.ParseError` to a 422.
    """
    from repro.cli import READERS  # the single source of format truth

    fmt = payload.get("format", "mig")
    if not isinstance(fmt, str) or fmt not in FORMATS:
        raise ProtocolError(
            400,
            "unsupported-format",
            f"unknown circuit format {fmt!r}; expected one of "
            f"{sorted(FORMATS)}",
        )
    text = payload.get("circuit")
    b64 = payload.get("circuit_b64")
    if (text is None) == (b64 is None):
        raise ProtocolError(
            400,
            "bad-request",
            "exactly one of 'circuit' and 'circuit_b64' is required",
        )
    if fmt in BINARY_FORMATS and b64 is None:
        raise ProtocolError(
            400,
            "bad-request",
            f"binary format {fmt!r} requires base64 in 'circuit_b64'",
        )
    if b64 is not None:
        if not isinstance(b64, str):
            raise ProtocolError(400, "bad-request", "'circuit_b64' must be a string")
        try:
            raw = base64.b64decode(b64.encode("ascii"), validate=True)
        except (binascii.Error, UnicodeEncodeError) as error:
            raise ProtocolError(
                400, "bad-request", f"invalid base64 circuit: {error}"
            ) from None
        source = io.BytesIO(raw) if fmt in BINARY_FORMATS else _text_io(raw)
    else:
        if not isinstance(text, str):
            raise ProtocolError(400, "bad-request", "'circuit' must be a string")
        source = io.StringIO(text)
    reader = READERS[FORMATS[fmt]]
    try:
        return reader(source)
    except ParseError as error:
        raise ProtocolError(422, "parse-error", str(error)) from None


def _text_io(raw: bytes) -> io.StringIO:
    try:
        return io.StringIO(raw.decode("utf-8"))
    except UnicodeDecodeError as error:
        raise ProtocolError(
            400, "bad-request", f"circuit is not valid UTF-8: {error}"
        ) from None


def request_class(payload: dict) -> str:
    """The request's admission class (``interactive`` or ``batch``)."""
    klass = payload.get("class", "interactive")
    if klass not in ("interactive", "batch"):
        raise ProtocolError(
            400,
            "bad-request",
            f"unknown request class {klass!r}; expected 'interactive' or 'batch'",
        )
    return klass


def compile_options(payload: dict) -> dict:
    """Validate and normalize a compile request's ``options`` object.

    Returns the *complete* options dict (defaults filled in), which is
    also the dedup/cache identity of the request — two requests with the
    same fingerprint and the same normalized options are the same job.
    With ``"rewrite": false`` it is ``{"rewrite": False}`` alone: such a
    compile never reads the rewrite settings, so they are checked but
    not kept.
    """
    from repro.core.rewriting import RewriteOptions

    options = payload.get("options", {})
    if not isinstance(options, dict):
        raise ProtocolError(400, "bad-request", "'options' must be an object")
    unknown = set(options) - {"rewrite", "effort", "engine", "objective"}
    if unknown:
        raise ProtocolError(
            400, "bad-request", f"unknown options: {sorted(unknown)}"
        )
    normalized = {
        "rewrite": options.get("rewrite", True),
        "effort": options.get("effort", 4),
        "engine": options.get("engine", "worklist"),
        "objective": options.get("objective", "size"),
    }
    if not isinstance(normalized["rewrite"], bool):
        raise ProtocolError(400, "bad-request", "'rewrite' must be a boolean")
    # one error contract with the library: RewriteOptions checks the rest
    try:
        RewriteOptions(
            effort=normalized["effort"],
            engine=normalized["engine"],
            objective=normalized["objective"],
        )
    except ReproError as exc:
        raise ProtocolError(400, "bad-request", str(exc)) from None
    if not normalized["rewrite"]:
        return {"rewrite": False}
    return normalized


def options_token(options: dict) -> str:
    """The canonical string identity of a normalized options dict."""
    return canonical_json(options).decode("ascii")


def dedup_key(payload: dict, options: dict) -> str:
    """The in-flight dedup identity of a compile request.

    Derived purely from the raw payload (format + exact circuit text or
    base64) plus the normalized options token — no parsing, no hashing
    of graph structure — so the app can join the dedup table
    *synchronously* on the event loop.  That synchrony is load-bearing:
    any await between reading the payload and joining would let a fast
    leader resolve and vacate the key before later identical requests
    join, silently splitting one burst into several compiles.

    The trade against the old fingerprint key: textually-different
    encodings of the same circuit (``aag`` vs ``aig``, whitespace
    variants) form separate dedup groups — but the fingerprint-keyed
    *cache* still unifies those across requests, so only truly
    concurrent mixed-encoding bursts pay a duplicate compile.
    """
    return f"{circuit_key(payload)}|{options_token(options)}"


def circuit_key(payload: dict) -> str:
    """The identity of the request's exact circuit bytes (no parsing).

    The sha256 of the canonical ``{format, circuit, circuit_b64}``
    triple, with the same ``format`` default :func:`parse_circuit`
    uses.  Parsing is deterministic, so this key determines the parsed
    graph's fingerprint — the server's fingerprint memo is keyed on it.
    Textually-different encodings of one circuit (``aag`` vs ``aig``,
    whitespace variants) get different keys.
    """
    material = canonical_json(
        {
            "format": payload.get("format", "mig"),
            "circuit": payload.get("circuit"),
            "circuit_b64": payload.get("circuit_b64"),
        }
    )
    return hashlib.sha256(material).hexdigest()
