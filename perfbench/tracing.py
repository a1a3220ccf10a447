"""In-memory spans for the traced runs, written out as Chrome trace events.

Spans are recorded from the benchmark's own files: around each layer call
the benchmark makes, and, in traced runs only, around calls that only
another layer reaches (installed with :func:`patched` and removed when the
run ends).  Each thread keeps its own span stack, so spans opened on the
server's executor threads nest correctly; a span's self time is its
duration minus the time its child spans on the same thread cover.
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time
from contextlib import contextmanager

#: identifier of the request a span belongs to (serve replays set it;
#: ``asyncio.to_thread`` carries it onto executor threads)
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar("request_id", default=None)


class Span:
    __slots__ = ("name", "tid", "start", "end", "parent", "args", "child_ns")

    def __init__(self, name, tid, start, parent, args):
        self.name = name
        self.tid = tid
        self.start = start
        self.end = start
        self.parent = parent
        self.args = args
        self.child_ns = 0

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) / 1e9

    @property
    def self_s(self) -> float:
        return (self.end - self.start - self.child_ns) / 1e9


class Tracer:
    """Collects spans in memory; nothing is written until :meth:`write`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._origin = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, **args):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        request = REQUEST_ID.get()
        if request is not None:
            args["request"] = request
        parent = stack[-1] if stack else None
        record = Span(name, threading.get_ident(), time.perf_counter_ns(), parent, args)
        stack.append(record)
        try:
            yield args
        finally:
            record.end = time.perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent.child_ns += record.end - record.start
            self.spans.append(record)

    def self_times(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds."""
        table: dict[str, dict] = {}
        for record in self.spans:
            row = table.setdefault(record.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += record.duration_s
            row["self_s"] += record.self_s
        return table

    def busy(self, name: str) -> float:
        """Total seconds inside spans named ``name`` (children included)."""
        return sum(r.duration_s for r in self.spans if r.name == name)

    def arg_sum(self, name: str, key: str) -> float:
        return sum(r.args.get(key, 0) for r in self.spans if r.name == name)

    def write(self, path) -> None:
        """Write every span as a Chrome trace-event ``X`` event (opens in
        Perfetto or ``chrome://tracing``)."""
        tids: dict[int, int] = {}
        events = []
        for record in sorted(self.spans, key=lambda r: r.start):
            tid = tids.setdefault(record.tid, len(tids) + 1)
            events.append(
                {
                    "name": record.name,
                    "cat": record.name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": (record.start - self._origin) / 1e3,
                    "dur": (record.end - record.start) / 1e3,
                    "args": {k: _jsonable(v) for k, v in record.args.items()},
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _jsonable(value):
    return value if isinstance(value, (int, float, str, bool)) or value is None else str(value)


@contextmanager
def patched(tracer: Tracer, owner, attr: str, name: str, on_result=None):
    """Wrap ``owner.attr`` in a span named ``name`` for the ``with`` block.

    ``on_result(span_args, call_args, result)`` may add span arguments from
    the call's positional arguments and result; it runs inside the span.
    """
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            result = original(*args, **kwargs)
            if on_result is not None:
                on_result(record, args, result)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def format_table(title: str, table: dict, wall_s: float) -> str:
    """A per-layer self-time table, largest self time first."""
    lines = [
        f"{title}: self time per layer (wall {wall_s:.3f} s)",
        f"  {'layer':<34} {'calls':>7} {'total s':>10} {'self s':>10} {'self %':>7}",
    ]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"  {name:<34} {row['calls']:>7} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {share:>6.1f}%"
        )
    return "\n".join(lines)
