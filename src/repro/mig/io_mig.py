"""Native ``.mig`` text format: a direct, lossless MIG serialization.

Grammar (one item per line, ``#`` comments)::

    .mig <name>
    .pi a b c ...
    n5 = <a, ~b, 0>      # majority gate: three children, ~ = complement
    .po f = ~n5
    .end

Node identifiers are ``n<k>`` for gates, PI names for inputs, ``0``/``1``
for constants.  Gates must be defined before use; child order is preserved
exactly (it matters to child-order translation).
"""

from __future__ import annotations

import io
from typing import Iterable, Iterator, Optional, TextIO

from repro.errors import ParseError
from repro.mig.graph import Mig
from repro.mig.signal import Signal


def write_mig(mig: Mig, path_or_file) -> None:
    """Serialize ``mig`` to a ``.mig`` file (path or open text file)."""
    if hasattr(path_or_file, "write"):
        _write(mig, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            _write(mig, handle)


def _write(mig: Mig, out: TextIO) -> None:
    out.write(f".mig {mig.name or ''}".rstrip() + "\n")
    if mig.num_pis:
        out.write(".pi " + " ".join(mig.pi_names()) + "\n")
    for v in mig.gates():
        children = ", ".join(_signal_text(mig, s) for s in mig.children(v))
        out.write(f"n{v} = <{children}>\n")
    for po, name in zip(mig.pos(), mig.po_names()):
        out.write(f".po {name} = {_signal_text(mig, po)}\n")
    out.write(".end\n")


def _signal_text(mig: Mig, signal: Signal) -> str:
    if signal.is_const:
        return str(signal.const_value)
    prefix = "~" if signal.inverted else ""
    if mig.is_pi(signal.node):
        return prefix + mig.pi_name(signal.node)
    return f"{prefix}n{signal.node}"


def read_mig(path_or_file) -> Mig:
    """Parse a ``.mig`` file (path, or open text or binary file).

    Malformed input — including a line that is not UTF-8 — raises
    :class:`~repro.errors.ParseError` with the line number.
    """
    return _read(text_lines(path_or_file))


def text_lines(path_or_file) -> Iterable[str]:
    """The lines of a text circuit file: a path, or an open text or
    binary file.

    Bytes are split at universal newlines, as text mode does, and decoded
    as UTF-8 line by line, so a line that does not decode raises
    :class:`~repro.errors.ParseError` with its number — as
    :meth:`~repro.plim.program.Program.from_text` does.
    """
    if isinstance(path_or_file, io.TextIOBase):
        return path_or_file
    if hasattr(path_or_file, "read"):
        data = path_or_file.read()
    else:
        with open(path_or_file, "rb") as handle:
            data = handle.read()
    if isinstance(data, str):
        return io.StringIO(data)
    return _decoded_lines(data)


def _decoded_lines(data: bytes) -> Iterator[str]:
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ParseError(f"not valid UTF-8: {error.reason}", lineno) from None


def _read(lines: Iterable[str]) -> Mig:
    mig: Optional[Mig] = None
    by_name: dict[str, Signal] = {}

    def parse_signal(token: str, lineno: int) -> Signal:
        token = token.strip()
        inverted = token.startswith("~")
        if inverted:
            token = token[1:].strip()
        if token == "0":
            signal = Signal.CONST0
        elif token == "1":
            signal = Signal.CONST1
        else:
            try:
                signal = by_name[token]
            except KeyError:
                raise ParseError(f"unknown signal {token!r}", lineno) from None
        return ~signal if inverted else signal

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".mig"):
            mig = Mig(name=line[4:].strip() or None)
            continue
        if mig is None:
            raise ParseError("file must start with a .mig header", lineno)
        if line == ".end":
            break
        if line.startswith(".pi"):
            for name in line.split()[1:]:
                by_name[name] = mig.add_pi(name)
        elif line.startswith(".po"):
            body = line[3:].strip()
            if "=" not in body:
                raise ParseError(f"malformed output line {line!r}", lineno)
            name, expr = (part.strip() for part in body.split("=", 1))
            mig.add_po(parse_signal(expr, lineno), name)
        else:
            if "=" not in line:
                raise ParseError(f"malformed gate line {line!r}", lineno)
            name, expr = (part.strip() for part in line.split("=", 1))
            if not (expr.startswith("<") and expr.endswith(">")):
                raise ParseError(f"gate body must be <a, b, c>, got {expr!r}", lineno)
            parts = expr[1:-1].split(",")
            if len(parts) != 3:
                raise ParseError(f"majority gate needs 3 children, got {len(parts)}", lineno)
            children = [parse_signal(p, lineno) for p in parts]
            # simplify=False: preserve the file's structure verbatim.
            by_name[name] = mig.add_maj(*children, simplify=False)
    if mig is None:
        raise ParseError("no .mig header found")
    return mig
