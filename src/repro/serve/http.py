"""The socket transport of ``plimc serve``: a stdlib asyncio HTTP/1.1 front.

Deliberately minimal — no external HTTP framework exists in this
environment, and the protocol surface is small enough that a hand-rolled
request reader is the *simpler* dependency.  Scope: one JSON request per
connection (``Connection: close`` on every response), request line +
headers + ``Content-Length`` body, hard caps on line/body sizes, and a
read deadline (``ServerConfig.read_timeout_s`` → 408) so a stalled or
silent client can't pin a connection task open indefinitely.  All
actual behavior lives in :class:`~repro.serve.app.PlimServer`; this
module only moves bytes, which is why the tier-1 harness skips it
entirely and the real-socket smoke test (marked ``socket``) covers the
byte-level framing.

Lifecycle: :func:`run_server` installs SIGTERM/SIGINT handlers that stop
the listener, flip the app into draining (new work → 503 while the
listener is still up mid-drain), await
:meth:`~repro.serve.app.PlimServer.drained`, and return — the
graceful-drain contract the deployment story depends on.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Optional

from repro.serve.app import PlimServer
from repro.serve.protocol import (
    STATUS_REASONS,
    Request,
    error_response,
)

#: request line / single header line cap (anything longer is hostile)
_MAX_LINE = 16 * 1024
_MAX_HEADERS = 64


async def handle_connection(
    app: PlimServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Read one HTTP request, run it through the app, write the response."""
    try:
        # the read deadline is the slow-loris guard: admission control
        # only applies after a full request is parsed, so without it a
        # client that connects and trickles (or sends nothing) would
        # pin this task open forever
        try:
            request, framing_error = await asyncio.wait_for(
                _read_request(app, reader),
                timeout=app.config.read_timeout_s,
            )
        except asyncio.TimeoutError:
            request, framing_error = None, error_response(
                408,
                "request-timeout",
                f"request not received within "
                f"{app.config.read_timeout_s:g}s",
            )
        if framing_error is not None:
            response = framing_error
        else:
            response = await app.handle(request)
        await _write_response(writer, response)
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # client went away; nothing to answer
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _read_request(app, reader):
    """Parse the wire into a :class:`Request`; framing errors become a
    ready-made error response (second tuple slot) instead of an exception,
    so the connection always gets a structured answer."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.LimitOverrunError:
        return None, error_response(400, "bad-request", "request line too long")
    if len(line) > _MAX_LINE:
        return None, error_response(400, "bad-request", "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        return None, error_response(400, "bad-request", "malformed request line")
    method, path = parts[0], parts[1]
    headers: dict = {}
    for _ in range(_MAX_HEADERS + 1):
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.LimitOverrunError:
            return None, error_response(400, "bad-request", "headers too large")
        if line in (b"\r\n", b"\n"):
            break
        if len(line) > _MAX_LINE or len(headers) >= _MAX_HEADERS:
            return None, error_response(400, "bad-request", "headers too large")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            return None, error_response(400, "bad-request", "malformed header")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
        if length < 0:
            raise ValueError
    except ValueError:
        return None, error_response(
            400, "bad-request", f"bad Content-Length: {length_text!r}"
        )
    if length > app.config.max_body_bytes:
        return None, error_response(
            413,
            "payload-too-large",
            f"request body exceeds {app.config.max_body_bytes} bytes",
        )
    body = await reader.readexactly(length) if length else b""
    return Request(method=method, path=path, body=body, headers=headers), None


async def _write_response(writer: asyncio.StreamWriter, response) -> None:
    reason = STATUS_REASONS.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}"]
    head.append("Content-Type: application/json")
    head.append(f"Content-Length: {len(response.body)}")
    for name, value in response.headers:
        head.append(f"{name}: {value}")
    head.append("Connection: close")
    writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + response.body)
    await writer.drain()


async def serve(
    app: PlimServer, host: str = "127.0.0.1", port: int = 8080
) -> asyncio.Server:
    """Bind and return the listening server (caller owns the lifecycle)."""

    async def _on_connection(reader, writer):
        await handle_connection(app, reader, writer)

    return await asyncio.start_server(
        _on_connection, host, port, limit=_MAX_LINE
    )


async def run_server(
    app: PlimServer,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    ready: Optional[asyncio.Event] = None,
) -> None:
    """Serve until SIGTERM/SIGINT, then drain gracefully and return.

    ``ready`` (when given) is set once the socket is listening — the
    smoke tests' startup synchronization.
    """
    server = await serve(app, host, port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or exotic platform: rely on KeyboardInterrupt
    addr = ", ".join(
        f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
        for sock in (server.sockets or [])
    )
    print(f"plimc serve: listening on {addr}", file=sys.stderr, flush=True)
    if ready is not None:
        ready.set()
    async with server:
        await stop.wait()
        print("plimc serve: draining...", file=sys.stderr, flush=True)
        server.close()
        await server.wait_closed()
        await app.drained()
    print("plimc serve: drained, bye", file=sys.stderr, flush=True)
