"""BLIF (Berkeley Logic Interchange Format) subset reader/writer.

The reader accepts combinational BLIF: ``.model``, ``.inputs``,
``.outputs``, ``.names`` (single-output cover tables with ``0/1/-`` input
plane and on-set/off-set output), and ``.end``.  Covers are converted to
sum-of-products over MIG AND/OR nodes (the AOIG-style transposition the
paper starts from).  Latches and hierarchy are not supported — the EPFL
suite and this package are purely combinational.

The writer emits one ``.names`` per majority gate using the majority
function's 6-row cover, which any BLIF consumer (ABC, SIS) accepts.
"""

from __future__ import annotations

from typing import Iterable, Optional, TextIO

from repro.errors import ParseError
from repro.mig.build import LogicBuilder
from repro.mig.graph import Mig
from repro.mig.io_mig import text_lines
from repro.mig.signal import Signal


def read_blif(path_or_file) -> Mig:
    """Parse a combinational BLIF file (path, or open text or binary
    file) into an MIG.

    Malformed input — including a line that is not UTF-8 — raises
    :class:`~repro.errors.ParseError` with the line number.
    """
    return _read(text_lines(path_or_file))


def _logical_lines(lines: Iterable[str]):
    """BLIF line continuation (trailing backslash) and comment stripping."""
    buffer = ""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            buffer += line[:-1] + " "
            continue
        if buffer:
            line = buffer + line
            buffer = ""
        if line.strip():
            yield lineno, line.strip()


def _read(lines: Iterable[str]) -> Mig:
    builder: Optional[LogicBuilder] = None
    signals: dict[str, Signal] = {}
    outputs: list[str] = []
    pending: list[tuple[int, str, list[str], list[tuple[str, str]]]] = []
    current: Optional[tuple[int, str, list[str], list[tuple[str, str]]]] = None

    for lineno, line in _logical_lines(lines):
        if line.startswith(".model"):
            builder = LogicBuilder(name=line[6:].strip() or None)
        elif line.startswith(".inputs"):
            if builder is None:
                raise ParseError(".inputs before .model", lineno)
            for name in line.split()[1:]:
                signals[name] = builder.input(name)
        elif line.startswith(".outputs"):
            outputs.extend(line.split()[1:])
        elif line.startswith(".names"):
            names = line.split()[1:]
            if not names:
                raise ParseError(".names needs at least an output", lineno)
            current = (lineno, names[-1], names[:-1], [])
            pending.append(current)
        elif line.startswith(".latch"):
            raise ParseError("sequential BLIF (.latch) is not supported", lineno)
        elif line.startswith(".end"):
            break
        elif line.startswith("."):
            raise ParseError(f"unsupported BLIF construct {line.split()[0]!r}", lineno)
        else:
            if current is None:
                raise ParseError(f"cover row outside .names: {line!r}", lineno)
            parts = line.split()
            if len(parts) == 1 and not current[2]:
                parts = ["", parts[0]]
            if len(parts) != 2:
                raise ParseError(f"malformed cover row {line!r}", lineno)
            current[3].append((parts[0], parts[1]))

    if builder is None:
        raise ParseError("no .model found")

    # Resolve .names tables in dependency order (they may be out of order).
    remaining = list(pending)
    progress = True
    while remaining and progress:
        progress = False
        still = []
        for item in remaining:
            lineno, out_name, in_names, rows = item
            if all(n in signals for n in in_names):
                signals[out_name] = _cover_to_mig(builder, [signals[n] for n in in_names], rows, lineno)
                progress = True
            else:
                still.append(item)
        remaining = still
    if remaining:
        missing = sorted({n for _, _, ins, _ in remaining for n in ins if n not in signals})
        raise ParseError(f"undefined signals {missing[:5]} (cyclic or incomplete netlist)")

    for name in outputs:
        if name not in signals:
            raise ParseError(f"output {name!r} has no driver")
        builder.output(signals[name], name)
    return builder.mig


def _cover_to_mig(builder, inputs, rows, lineno) -> Signal:
    """Sum-of-products (or complemented SOP for off-set covers)."""
    if not rows:
        return builder.const(0)
    polarities = {value for _, value in rows}
    if len(polarities) != 1:
        raise ParseError("mixed on-set/off-set cover", lineno)
    polarity = polarities.pop()
    if polarity not in ("0", "1"):
        raise ParseError(f"invalid cover output {polarity!r}", lineno)
    cubes = []
    for plane, _ in rows:
        if len(plane) != len(inputs):
            raise ParseError(
                f"cover row width {len(plane)} does not match {len(inputs)} inputs", lineno
            )
        literals = []
        for char, signal in zip(plane, inputs):
            if char == "1":
                literals.append(signal)
            elif char == "0":
                literals.append(~signal)
            elif char != "-":
                raise ParseError(f"invalid cover character {char!r}", lineno)
        cubes.append(builder.and_reduce(literals))
    result = builder.or_reduce(cubes)
    return result if polarity == "1" else ~result


def write_blif(mig: Mig, path_or_file) -> None:
    """Serialize ``mig`` as BLIF (one majority cover per gate)."""
    if hasattr(path_or_file, "write"):
        _write(mig, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            _write(mig, handle)


_MAJ_ON_SET = ("11-", "1-1", "-11")


def _write(mig: Mig, out: TextIO) -> None:
    out.write(f".model {mig.name or 'mig'}\n")
    if mig.num_pis:
        out.write(".inputs " + " ".join(mig.pi_names()) + "\n")
    out.write(".outputs " + " ".join(n or f"po{i}" for i, n in enumerate(mig.po_names())) + "\n")
    out.write(".names const0\n")  # constant-zero driver: empty cover = 0

    def wire(signal: Signal) -> str:
        """Wire name delivering `signal` (negations become inverter tables)."""
        if signal.is_const:
            if signal.const_value == 0:
                return "const0"
            inverters.add(("const0", "const1"))
            return "const1"
        base = mig.pi_name(signal.node) if mig.is_pi(signal.node) else f"n{signal.node}"
        if not signal.inverted:
            return base
        inverters.add((base, base + "_bar"))
        return base + "_bar"

    inverters: set[tuple[str, str]] = set()
    body: list[str] = []
    for v in mig.gates():
        names = [wire(s) for s in mig.children(v)]
        body.append(f".names {names[0]} {names[1]} {names[2]} n{v}")
        body.extend(f"{row} 1" for row in _MAJ_ON_SET)
    for po, name in zip(mig.pos(), mig.po_names()):
        driver = wire(po)
        body.append(f".names {driver} {name}")
        body.append("1 1")
    for source, target in sorted(inverters):
        body.append(f".names {source} {target}")
        body.append("0 1")
    out.write("\n".join(body) + "\n.end\n")
