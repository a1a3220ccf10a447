"""AIGER reader and writer — ASCII (``.aag``) and binary (``.aig``).

AIGs (And-Inverter Graphs) are the lingua franca of logic synthesis tools;
reading them gives this package access to standard benchmark circuits, and
AND nodes transpose directly to majority nodes with a constant-0 child —
the AOIG→MIG embedding of paper Fig. 1(a).  Every real benchmark suite
(EPFL, ISCAS, IWLS) ships the compact *binary* format, so both are
supported: :func:`read_aiger` sniffs the header magic and dispatches.

Only the combinational subset is supported (no latches); symbols and
comments are honoured on read and emitted on write.  Writing decomposes
each majority gate into its AND/OR form ``⟨abc⟩ = (a∧b) ∨ (c∧(a∨b))``
(four AIG nodes), since AIGs have no native majority.

Binary format in brief (see the AIGER 1.9 spec): the header reads
``aig M I L O A`` with ``M = I + L + A``; inputs are implicit (literals
``2 .. 2I``), outputs are one ASCII literal per line, and the ``A`` AND
gates follow as byte pairs of LEB128-style deltas — gate ``i`` has the
implicit LHS ``2*(I + L + i + 1)`` and stores ``lhs - rhs0`` and
``rhs0 - rhs1`` in 7-bit groups with a continuation MSB.  The encoding
requires ``rhs0 >= rhs1`` and increasing LHS order, which the literal
assignment here produces naturally (inputs first, gates in topological
order).

Reading decodes both flavours into flat literal rows and builds the graph
on raw child encodings (:func:`_build_mig`), because every served request
pays for ingest before the cache can answer.  Malformed input raises
:class:`~repro.errors.ParseError` only.
"""

from __future__ import annotations

from typing import TextIO, Union

from repro.errors import MigError, ParseError
from repro.mig.graph import _MAX_NODE, Mig
from repro.mig.signal import Signal


def read_aiger(path_or_file) -> Mig:
    """Parse an AIGER file — ASCII or binary — into an MIG.

    The format is sniffed from the header magic (``aag`` vs ``aig``), so
    callers never need to know which flavour a benchmark ships in.  ANDs
    become ``⟨a b 0⟩``.  Malformed input of either flavour raises
    :class:`~repro.errors.ParseError` and nothing else, and the sizes a
    header declares are checked before anything is allocated for them.
    """
    if hasattr(path_or_file, "read"):
        data = path_or_file.read()
    else:
        with open(path_or_file, "rb") as handle:
            data = handle.read()
    if isinstance(data, str):
        raw = data.encode("utf-8")
    else:
        raw = data
    if raw.startswith(b"aig "):
        return _read_binary(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ParseError(f"ASCII AIGER is not valid UTF-8: {error}") from None
    return _read(text)


def _header(fields: list[str], magic: str) -> tuple[int, int, int, int]:
    """``(M, I, O, A)`` of a split ``magic M I L O A`` header line.

    ``M`` may not exceed the MIG node limit: every variable becomes at
    most one node, and the reader sizes its variable table by ``M``.
    """
    if len(fields) != 6 or fields[0] != magic:
        raise ParseError(f"expected header '{magic} M I L O A'", 1)
    try:
        max_var, num_in, num_latch, num_out, num_and = (int(x) for x in fields[1:])
    except ValueError:
        raise ParseError("non-numeric AIGER header fields", 1) from None
    if min(max_var, num_in, num_latch, num_out, num_and) < 0:
        raise ParseError("negative AIGER header field", 1)
    if num_latch:
        raise ParseError("sequential AIGER (latches) is not supported", 1)
    if max_var > _MAX_NODE:
        raise ParseError(
            f"maximum variable index M={max_var} exceeds the MIG node limit "
            f"{_MAX_NODE}",
            1,
        )
    return max_var, num_in, num_out, num_and


def _ints(fields: list, first_line: int, per_line: int, what: str) -> list[int]:
    """``int`` of every field, or a :class:`ParseError` naming the line
    of the first non-numeric one (``per_line`` fields per line)."""
    try:
        return [int(x) for x in fields]
    except ValueError:
        for index, field in enumerate(fields):
            try:
                int(field)
            except ValueError:
                raise ParseError(
                    f"non-numeric {what} {field!r}", first_line + index // per_line
                ) from None
        raise


def _read(text: str) -> Mig:
    """Parse the ASCII (``aag``) encoding."""
    lines = text.split("\n")
    max_var, num_in, num_out, num_and = _header(lines[0].split(), "aag")
    first_and = 1 + num_in + num_out
    end = first_and + num_and
    if len(lines) < end:
        raise ParseError(
            f"truncated AIGER: the header declares {end - 1} literal lines, "
            f"{len(lines) - 1} follow",
            len(lines) + 1,
        )
    input_literals = _ints(lines[1 : 1 + num_in], 2, 1, "input literal")
    output_literals = _ints(lines[1 + num_in : first_and], 2 + num_in, 1, "output literal")
    fields: list[str] = []
    for number, row in enumerate(lines[first_and:end], first_and + 1):
        parts = row.split()
        if len(parts) != 3:
            raise ParseError("malformed AND row", number)
        fields += parts
    ands = _ints(fields, first_and + 1, 3, "AND literal")

    limit = 2 * max_var + 1
    _check_range(input_literals, limit, 2, 1)
    _check_range(output_literals, limit, 2 + num_in, 1)
    _check_range(ands, limit, first_and + 1, 3)
    for number, literal in enumerate(input_literals, 2):
        if literal & 1:
            raise ParseError(f"input literal {literal} must be even", number)
    for number, lhs in enumerate(ands[::3], first_and + 1):
        if lhs & 1:
            raise ParseError(f"AND literal {lhs} must be even", number)

    input_names, output_names = _parse_symbols(lines[end:], end + 1)
    return _build_mig(
        max_var, input_literals, output_literals, ands, input_names, output_names
    )


def _check_range(literals: list[int], limit: int, first_line: int, per_line: int) -> None:
    """Every literal must lie in ``0 .. limit`` (``2M + 1``)."""
    if literals and (min(literals) < 0 or max(literals) > limit):
        index = next(i for i, x in enumerate(literals) if not 0 <= x <= limit)
        raise ParseError(
            f"literal {literals[index]} outside 0..{limit}", first_line + index // per_line
        )


def _read_binary(data: bytes) -> Mig:
    """Parse the compact binary (``aig``) encoding."""
    nl = data.find(b"\n")
    if nl < 0:
        raise ParseError("truncated binary AIGER header", 1)
    fields = [field.decode("latin-1") for field in data[:nl].split()]
    max_var, num_in, num_out, num_and = _header(fields, "aig")
    if max_var != num_in + num_and:
        raise ParseError(
            f"binary AIGER requires M = I + L + A, got M={max_var}, "
            f"I={num_in}, L=0, A={num_and}",
            1,
        )
    # Size checks before any allocation: an output line takes at least 2
    # bytes ("0\n"), an AND gate at least 2 (one byte per delta).
    remaining = len(data) - nl - 1
    if 2 * num_out > remaining:
        raise ParseError(
            f"truncated output section: {num_out} outputs declared, "
            f"{remaining} bytes follow the header",
            2,
        )
    rows = data[nl + 1 :].split(b"\n", num_out)
    if len(rows) <= num_out:
        raise ParseError("truncated output section", 1 + len(rows))
    output_literals = _ints(rows[:num_out], 2, 1, "output literal")
    _check_range(output_literals, 2 * max_var + 1, 2, 1)
    remaining = len(rows[-1])
    if 2 * num_and > remaining:
        raise ParseError(
            f"truncated delta encoding: {num_and} AND gates declared, "
            f"{remaining} bytes follow the outputs"
        )

    pos = len(data) - len(rows[-1])
    ands: list[int] = []
    lhs = 2 * num_in
    try:
        for i in range(num_and):
            lhs += 2
            delta0 = data[pos]
            pos += 1
            if delta0 & 0x80:
                delta0, pos = _varint(data, pos, delta0)
            delta1 = data[pos]
            pos += 1
            if delta1 & 0x80:
                delta1, pos = _varint(data, pos, delta1)
            rhs0 = lhs - delta0
            rhs1 = rhs0 - delta1
            if rhs1 < 0:
                raise ParseError(
                    f"AND gate {i}: deltas {[delta0, delta1]} underflow below literal 0"
                )
            ands += (lhs, rhs0, rhs1)
    except IndexError:
        raise ParseError(f"truncated delta encoding in AND gate {i}") from None

    input_names, output_names = _parse_symbols(
        data[pos:].decode("utf-8", errors="replace").split("\n"),
        data.count(b"\n", 0, pos) + 1,
    )
    return _build_mig(
        max_var,
        range(2, 2 * num_in + 1, 2),
        output_literals,
        ands,
        input_names,
        output_names,
    )


def _varint(data: bytes, pos: int, first: int) -> tuple[int, int]:
    """Rest of a multi-byte delta whose first byte ``first`` is read."""
    value = first & 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _parse_symbols(lines: list[str], first_line: int) -> tuple[dict[int, str], dict[int, str]]:
    """Symbol table (and ignored comment section) of either format."""
    input_names: dict[int, str] = {}
    output_names: dict[int, str] = {}
    for number, line in enumerate(lines, first_line):
        if line.startswith("c"):
            break
        if line.startswith(("i", "o")):
            try:
                pos, name = line[1:].split(" ", 1)
                index = int(pos)
            except ValueError:
                raise ParseError(f"malformed symbol line {line!r}", number) from None
            (input_names if line[0] == "i" else output_names)[index] = name
    return input_names, output_names


def _build_mig(
    max_var: int,
    input_literals,
    output_literals: list[int],
    ands: list[int],
    input_names: dict[int, str],
    output_names: dict[int, str],
) -> Mig:
    """Shared back half of both readers: literals → MIG encodings.

    ``var_enc`` maps each AIGER variable to the encoding of its MIG node
    (``-1`` until defined), so a literal resolves to
    ``var_enc[lit >> 1] ^ (lit & 1)`` — negative exactly when undefined.
    Each AND ``lhs = rhs0 ∧ rhs1`` becomes ``add_maj_enc(a, b, 0)``, which
    folds constants and merges structural duplicates.  Every literal is
    already known to lie in ``0 .. 2M + 1``.
    """
    mig = Mig()
    var_enc = [-1] * (max_var + 1)
    var_enc[0] = 0
    try:
        for pos, literal in enumerate(input_literals):
            var_enc[literal >> 1] = int(mig.add_pi(input_names.get(pos, f"i{pos}")))
    except MigError as error:
        raise ParseError(str(error)) from None

    add_maj_enc = mig.add_maj_enc
    rows = iter(ands)
    for lhs, rhs0, rhs1 in zip(rows, rows, rows):
        a = var_enc[rhs0 >> 1] ^ (rhs0 & 1)
        b = var_enc[rhs1 >> 1] ^ (rhs1 & 1)
        if a < 0 or b < 0:
            raise ParseError(f"literal {rhs0 if a < 0 else rhs1} used before definition")
        var_enc[lhs >> 1] = add_maj_enc(a, b, 0)

    for pos, literal in enumerate(output_literals):
        enc = var_enc[literal >> 1] ^ (literal & 1)
        if enc < 0:
            raise ParseError(f"literal {literal} used before definition")
        mig.add_po(Signal(enc), output_names.get(pos, f"o{pos}"))
    return mig


def write_aiger(mig: Mig, path_or_file, *, binary: Union[bool, None] = None) -> None:
    """Serialize ``mig`` as AIGER (majority → 4 AND nodes).

    ``binary=None`` (the default) infers the flavour: paths ending in
    ``.aig`` get the binary encoding, everything else — including open
    text handles — gets ASCII.  Pass ``binary`` explicitly to override.
    """
    if hasattr(path_or_file, "write"):
        if binary:
            _write_binary(mig, path_or_file)
        else:
            _write(mig, path_or_file)
        return
    if binary is None:
        binary = str(path_or_file).endswith(".aig")
    if binary:
        with open(path_or_file, "wb") as handle:
            _write_binary(mig, handle)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            _write(mig, handle)


def _assign_literals(mig: Mig):
    """AIG literal assignment shared by both writers.

    Inputs take literals ``2 .. 2I``; gate decompositions follow in
    topological order with strictly increasing LHS literals and
    ``rhs0 >= rhs1`` per row — exactly the layout the binary delta
    encoding requires, so ASCII and binary emit the same AIG.
    """
    next_var = [0]
    literal_of: dict[int, int] = {}  # MIG signal int -> AIG literal
    and_rows: list[tuple[int, int, int]] = []

    def fresh() -> int:
        next_var[0] += 1
        return 2 * next_var[0]

    def emit_and(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        lhs = fresh()
        and_rows.append((lhs, max(a, b), min(a, b)))
        return lhs

    def emit_or(a: int, b: int) -> int:
        return emit_and(a ^ 1, b ^ 1) ^ 1

    literal_of[int(Signal.CONST0)] = 0
    literal_of[int(Signal.CONST1)] = 1
    input_literals = []
    for pi in mig.pis():
        literal = fresh()
        literal_of[int(pi)] = literal
        literal_of[int(~pi)] = literal ^ 1
        input_literals.append(literal)

    for v in mig.topo_gates():
        a, b, c = (literal_of[int(s)] for s in mig.children(v))
        # ⟨abc⟩ = (a∧b) ∨ (c∧(a∨b)): four AND nodes instead of five.
        result = emit_or(emit_and(a, b), emit_and(c, emit_or(a, b)))
        literal_of[v << 1] = result
        literal_of[(v << 1) | 1] = result ^ 1

    output_literals = [literal_of[int(po)] for po in mig.pos()]
    return next_var[0], input_literals, output_literals, and_rows


def _write(mig: Mig, out: TextIO) -> None:
    max_var, input_literals, output_literals, and_rows = _assign_literals(mig)
    out.write(
        f"aag {max_var} {mig.num_pis} 0 {mig.num_pos} {len(and_rows)}\n"
    )
    for literal in input_literals:
        out.write(f"{literal}\n")
    for literal in output_literals:
        out.write(f"{literal}\n")
    for lhs, rhs0, rhs1 in and_rows:
        out.write(f"{lhs} {rhs0} {rhs1}\n")
    for pos, name in enumerate(mig.pi_names()):
        out.write(f"i{pos} {name}\n")
    for pos, name in enumerate(mig.po_names()):
        out.write(f"o{pos} {name}\n")
    out.write(f"c\nwritten by repro {mig.name or ''}\n".rstrip() + "\n")


def _write_binary(mig: Mig, out) -> None:
    """Binary (``aig``) writer over the shared literal assignment.

    The assignment yields gate LHS literals ``2(I+1), 2(I+2), ...`` in
    emission order, matching the implicit LHS numbering of the binary
    format, so no re-numbering pass is needed.
    """
    max_var, input_literals, output_literals, and_rows = _assign_literals(mig)
    chunks: list[bytes] = [
        f"aig {max_var} {mig.num_pis} 0 {mig.num_pos} {len(and_rows)}\n".encode()
    ]
    for literal in output_literals:
        chunks.append(f"{literal}\n".encode())
    encoded = bytearray()
    for lhs, rhs0, rhs1 in and_rows:
        for delta in (lhs - rhs0, rhs0 - rhs1):
            while delta >= 0x80:
                encoded.append(0x80 | (delta & 0x7F))
                delta >>= 7
            encoded.append(delta)
    chunks.append(bytes(encoded))
    for pos, name in enumerate(mig.pi_names()):
        chunks.append(f"i{pos} {name}\n".encode())
    for pos, name in enumerate(mig.po_names()):
        chunks.append(f"o{pos} {name}\n".encode())
    comment = f"c\nwritten by repro {mig.name or ''}\n".rstrip() + "\n"
    chunks.append(comment.encode())
    out.write(b"".join(chunks))
