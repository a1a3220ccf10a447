"""The Signal-level AIGER reader, kept as the oracle for the shipped one,
and the served hot set of AIGER payloads.

:func:`reference_read_aiger` is :func:`~repro.mig.io_aiger.read_aiger`
as it was before ingest moved onto raw child encodings: every literal
resolves to a :class:`~repro.mig.signal.Signal` and every AND is built
through :meth:`LogicBuilder.and_ <repro.mig.build.LogicBuilder.and_>`.
It reads well-formed files only (malformed ones may fail with any
exception).
``tests/test_aiger_ingest_differential.py`` checks the shipped reader
against it, and ``benchmarks/bench_graph_core.py`` times both on
:func:`hot_set`.  No third-party imports, so the standalone benchmark
can load this module.
"""

from __future__ import annotations

import io

from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.errors import ParseError
from repro.mig.build import LogicBuilder
from repro.mig.graph import Mig
from repro.mig.io_aiger import write_aiger
from repro.mig.signal import Signal

#: the scales of the registry circuits a ``POST /compile`` hot set holds
HOT_SCALES = ("ci", "default")


def aiger_bytes(mig: Mig, binary: bool) -> bytes:
    """``mig`` written as binary or ASCII AIGER."""
    if binary:
        buffer = io.BytesIO()
        write_aiger(mig, buffer, binary=True)
        return buffer.getvalue()
    buffer = io.StringIO()
    write_aiger(mig, buffer)
    return buffer.getvalue().encode("utf-8")


def hot_set() -> dict[str, tuple[bytes, bytes]]:
    """``name@scale`` → (binary, ASCII) AIGER of the 18 registry circuits
    at ci and default scale: 34 distinct circuits, since some have one
    size at both scales and appear once."""
    payloads, seen = {}, set()
    for scale in HOT_SCALES:
        for name in BENCHMARK_NAMES:
            mig = build(name, scale)
            binary = aiger_bytes(mig, binary=True)
            if binary not in seen:
                seen.add(binary)
                payloads[f"{name}@{scale}"] = (binary, aiger_bytes(mig, binary=False))
    return payloads


def reference_read_aiger(data: bytes) -> Mig:
    """Parse AIGER bytes of either flavour through ``LogicBuilder``."""
    if data.startswith(b"aig "):
        return _reference_binary(data)
    return _reference_ascii(io.StringIO(data.decode("utf-8")))


def _reference_ascii(handle) -> Mig:
    header = handle.readline().split()
    if len(header) != 6 or header[0] != "aag":
        raise ParseError("expected header 'aag M I L O A'", 1)
    _, num_in, num_latch, num_out, num_and = (int(x) for x in header[1:])
    if num_latch:
        raise ParseError("sequential AIGER (latches) is not supported", 1)
    input_literals = [int(handle.readline()) for _ in range(num_in)]
    output_literals = [int(handle.readline()) for _ in range(num_out)]
    and_rows = [tuple(int(p) for p in handle.readline().split()) for _ in range(num_and)]
    input_names, output_names = _reference_symbols(handle)
    return reference_build_mig(
        input_literals, output_literals, and_rows, input_names, output_names
    )


def _reference_binary(data: bytes) -> Mig:
    nl = data.index(b"\n")
    _, num_in, num_latch, num_out, num_and = (int(x) for x in data[:nl].split()[1:])
    pos = nl + 1
    output_literals = []
    for _ in range(num_out):
        line_end = data.index(b"\n", pos)
        output_literals.append(int(data[pos:line_end]))
        pos = line_end + 1
    and_rows = []
    for i in range(num_and):
        lhs = 2 * (num_in + num_latch + i + 1)
        deltas = []
        for _ in range(2):
            value = shift = 0
            while True:
                byte = data[pos]
                pos += 1
                value |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
            deltas.append(value)
        rhs0 = lhs - deltas[0]
        and_rows.append((lhs, rhs0, rhs0 - deltas[1]))
    input_names, output_names = _reference_symbols(
        io.StringIO(data[pos:].decode("utf-8", errors="replace"))
    )
    input_literals = [2 * (i + 1) for i in range(num_in)]
    return reference_build_mig(
        input_literals, output_literals, and_rows, input_names, output_names
    )


def _reference_symbols(handle):
    input_names, output_names = {}, {}
    for raw in handle:
        line = raw.rstrip("\n")
        if line.startswith("c"):
            break
        if line.startswith("i"):
            pos, name = line[1:].split(" ", 1)
            input_names[int(pos)] = name
        elif line.startswith("o"):
            pos, name = line[1:].split(" ", 1)
            output_names[int(pos)] = name
    return input_names, output_names


def reference_build_mig(
    input_literals, output_literals, and_rows, input_names, output_names
) -> Mig:
    """Literals → LogicBuilder calls, one Signal per literal."""
    builder = LogicBuilder()
    literal_map: dict[int, Signal] = {0: Signal.CONST0, 1: Signal.CONST1}
    for pos, literal in enumerate(input_literals):
        literal_map[literal] = builder.input(input_names.get(pos, f"i{pos}"))

    def resolve(literal: int) -> Signal:
        base = literal_map.get(literal & ~1)
        if base is None:
            raise ParseError(f"literal {literal} used before definition")
        return ~base if literal & 1 else base

    for lhs, rhs0, rhs1 in and_rows:
        if lhs % 2:
            raise ParseError(f"AND literal {lhs} must be even")
        literal_map[lhs] = builder.and_(resolve(rhs0), resolve(rhs1))
    for pos, literal in enumerate(output_literals):
        builder.output(resolve(literal), output_names.get(pos, f"o{pos}"))
    return builder.mig
