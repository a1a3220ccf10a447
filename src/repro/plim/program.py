"""PLiM programs: instruction sequences plus the memory-layout contract.

A :class:`Program` owns

* the ordered RM3 instructions,
* the input contract: which cell holds which primary input,
* the output contract: which cell holds which primary output on completion
  (with a polarity flag — rewriting may legally leave an output stored
  complemented when ``fix_output_polarity`` is off, matching the paper's
  listings), and
* the work-cell inventory, whose size is the paper's ``#R`` metric.

Programs can be pretty-printed in the paper's listing style and serialized
to/from a small text format (``.plim``).

Internally the instruction stream lives in flat ``array('q')`` columns (the
same struct-of-arrays idiom as the MIG core): two operand-encoding columns,
one destination column, and a lazy comment descriptor per instruction.
:class:`~repro.plim.isa.Instruction` objects are materialized on demand by
the :attr:`Program.instructions` view, so building and measuring a
100k-instruction program allocates no per-RM3 dataclasses, and comments are
rendered only when a listing is actually produced.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import ParseError
from repro.plim.isa import Instruction, Operand, decode_operand, encode_operand


@dataclass(frozen=True, slots=True)
class OutputLocation:
    """Where a primary output lives when the program halts."""

    cell: int
    inverted: bool = False  # True: the cell holds the *complement*


# Lazy comment descriptors: each instruction carries a (kind, x, y[, text])
# tuple describing how to *build* its comment string instead of the string
# itself.  Kinds 2-5 cover every comment the translator emits; RAW keeps
# the general case (parsed files, hand-built programs) working.
COMMENT_NONE = 0  # no comment
COMMENT_RAW = 1  # literal string in the overflow table
COMMENT_CELL_CONST = 2  # "{label(x)} <- {y}"           (set-constant)
COMMENT_CELL_SIG = 3  # "{label(x)} <- {signal(y)}"   (load / inverted load)
COMMENT_CELL_NODE = 4  # "{label(x)} <- n{y}"          (a gate's final RM3)
COMMENT_TARGET_CONST = 5  # "{text} <- {y}"               (constant output)


class Program:
    """An executable PLiM program with its I/O contract."""

    def __init__(
        self,
        input_cells: Optional[dict[str, int]] = None,
        name: Optional[str] = None,
    ):
        self.name = name
        #: PI name → cell address (cells pre-loaded before execution).
        self.input_cells: dict[str, int] = dict(input_cells or {})
        #: PO name → :class:`OutputLocation`.
        self.output_cells: dict[str, OutputLocation] = {}
        #: Work cells ever allocated (the paper's #R), in allocation order.
        self.work_cells: list[int] = []
        self._work_cell_set: set[int] = set()
        #: PI node id → name, for lazy signal-name comments (set by the
        #: fast compiler; empty for parsed or hand-built programs).
        self.pi_node_names: dict[int, str] = {}
        # --- the flat instruction spine -------------------------------
        self._enc_a = array("q")  # operand A encodings
        self._enc_b = array("q")  # operand B encodings
        self._dst = array("q")  # destination addresses
        self._ck = bytearray()  # comment kinds
        self._cx = array("q")  # comment operand (cell address / unused)
        self._cy = array("q")  # comment payload (bit / signal enc / node)
        self._ctext: dict[int, str] = {}  # overflow strings (RAW / TARGET)
        #: bumped on every append — execution plans key on (len, version)
        self.version = 0
        self._instr_cache: list[Instruction] = []

    # ------------------------------------------------------------------

    def append(self, instruction: Instruction) -> None:
        """Add one instruction to the end of the program."""
        index = len(self._dst)
        self._enc_a.append(encode_operand(instruction.a))
        self._enc_b.append(encode_operand(instruction.b))
        self._dst.append(instruction.z)
        if instruction.comment:
            self._ck.append(COMMENT_RAW)
            self._ctext[index] = instruction.comment
        else:
            self._ck.append(COMMENT_NONE)
        self._cx.append(0)
        self._cy.append(0)
        self.version += 1

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Add several instructions."""
        for instruction in instructions:
            self.append(instruction)

    def register_work_cell(self, address: int) -> None:
        """Record that ``address`` is used as a work cell."""
        if address not in self._work_cell_set:
            self._work_cell_set.add(address)
            self.work_cells.append(address)

    def set_output(self, name: str, cell: int, inverted: bool = False) -> None:
        """Declare where output ``name`` lives after execution."""
        self.output_cells[name] = OutputLocation(cell, inverted)

    # ------------------------------------------------------------------

    @property
    def instructions(self) -> list[Instruction]:
        """The instruction stream as :class:`Instruction` objects.

        Materialized lazily from the flat columns and cached; the spine is
        append-only, so a stale cache is topped up rather than rebuilt.
        Treat the returned list as read-only.
        """
        cache = self._instr_cache
        n = len(self._dst)
        if len(cache) < n:
            comment_at = self._comment_resolver()
            enc_a, enc_b, dst = self._enc_a, self._enc_b, self._dst
            for i in range(len(cache), n):
                cache.append(
                    Instruction(
                        decode_operand(enc_a[i]),
                        decode_operand(enc_b[i]),
                        dst[i],
                        comment_at(i),
                    )
                )
        return cache

    @property
    def num_instructions(self) -> int:
        """The paper's #I metric."""
        return len(self._dst)

    @property
    def num_rrams(self) -> int:
        """The paper's #R metric: distinct work RRAMs used."""
        return len(self.work_cells)

    @property
    def num_cells(self) -> int:
        """Total cells touched (inputs + work cells)."""
        highest = -1
        for z in self._dst:
            if z > highest:
                highest = z
        for column in (self._enc_a, self._enc_b):
            for enc in column:
                if not enc & 1 and enc >> 1 > highest:
                    highest = enc >> 1
        for addr in self.input_cells.values():
            if addr > highest:
                highest = addr
        return highest + 1

    def __len__(self) -> int:
        return len(self._dst)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def cell_namer(self):
        """Callable mapping a cell address to a paper-style name.

        Input cells render as their PI name; work cells as ``@X1 ...`` in
        allocation order; anything else as ``@addr``.
        """
        input_names = {addr: name for name, addr in self.input_cells.items()}
        work_names = {addr: f"@X{i + 1}" for i, addr in enumerate(self.work_cells)}

        def namer(address: int) -> str:
            if address in input_names:
                return input_names[address]
            if address in work_names:
                return work_names[address]
            return f"@{address}"

        return namer

    def _comment_resolver(self):
        """Callable mapping an instruction index to its comment string."""
        namer = self.cell_namer()
        pi_names = self.pi_node_names
        ck, cx, cy, ctext = self._ck, self._cx, self._cy, self._ctext

        def signame(enc: int) -> str:
            node = enc >> 1
            name = pi_names.get(node) or f"n{node}"
            return f"~{name}" if enc & 1 else name

        def comment_at(index: int) -> str:
            kind = ck[index]
            if kind == COMMENT_NONE:
                return ""
            if kind == COMMENT_RAW:
                return ctext[index]
            if kind == COMMENT_CELL_CONST:
                return f"{namer(cx[index])} <- {cy[index]}"
            if kind == COMMENT_CELL_SIG:
                return f"{namer(cx[index])} <- {signame(cy[index])}"
            if kind == COMMENT_CELL_NODE:
                return f"{namer(cx[index])} <- n{cy[index]}"
            return f"{ctext[index]} <- {cy[index]}"  # COMMENT_TARGET_CONST

        return comment_at

    @staticmethod
    def _render_operand(enc: int, namer=None) -> str:
        if enc & 1:
            return str(enc >> 1)
        return namer(enc >> 1) if namer is not None else f"@{enc >> 1}"

    def listing(self, with_comments: bool = True) -> str:
        """Paper-style listing, e.g. ``01: 0, 1, @X1   X1 <- 0``."""
        namer = self.cell_namer()
        comment_at = self._comment_resolver()
        width = max(2, len(str(len(self._dst))))
        lines = []
        for index in range(len(self._dst)):
            a = self._render_operand(self._enc_a[index], namer)
            b = self._render_operand(self._enc_b[index], namer)
            text = f"{index + 1:0{width}d}: {a}, {b}, {namer(self._dst[index])}"
            if with_comments:
                comment = comment_at(index)
                if comment:
                    text = f"{text:<36} {comment}"
            lines.append(text)
        return "\n".join(lines)

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return (
            f"<Program{name}: {self.num_instructions} instructions, "
            f"{self.num_rrams} work RRAMs>"
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_instr_cache"] = []  # rebuilt on demand after unpickling
        state.pop("_exec_plan", None)
        state.pop("_exec_plan_key", None)
        return state

    def to_text(self) -> str:
        """Serialize to the ``.plim`` text format."""
        lines = [f".plim {self.name or ''}".rstrip()]
        for name, addr in self.input_cells.items():
            lines.append(f".input {name} {addr}")
        for name, loc in self.output_cells.items():
            inv = " inv" if loc.inverted else ""
            lines.append(f".output {name} {loc.cell}{inv}")
        if self.work_cells:
            lines.append(".work " + " ".join(str(c) for c in self.work_cells))
        comment_at = self._comment_resolver()
        for index in range(len(self._dst)):
            a = self._render_operand(self._enc_a[index])
            b = self._render_operand(self._enc_b[index])
            comment = comment_at(index)
            suffix = f" ; {comment}" if comment else ""
            lines.append(f"{a} {b} @{self._dst[index]}{suffix}")
        lines.append(".end")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: "str | bytes") -> "Program":
        """Parse the ``.plim`` text format produced by :meth:`to_text`.

        ``text`` may also be the raw bytes of a ``.plim`` file, which must
        be UTF-8.  Malformed input raises :class:`~repro.errors.ParseError`
        carrying the offending line number, and nothing else.
        """
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as error:
                line = text.count(b"\n", 0, error.start) + 1
                raise ParseError(f"not valid UTF-8: {error.reason}", line) from None
        program: Optional[Program] = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split(";")[0].strip()
            comment = raw.split(";", 1)[1].strip() if ";" in raw else ""
            if not line:
                continue
            if line.startswith(".plim"):
                name = line[len(".plim"):].strip() or None
                program = cls(name=name)
                continue
            if program is None:
                raise ParseError("file must start with a .plim header", lineno)
            if line == ".end":
                break
            parts = line.split()
            if line.startswith(".input"):
                if len(parts) != 3:
                    raise ParseError(f"expected '.input NAME CELL', got {line!r}", lineno)
                program.input_cells[parts[1]] = _parse_address(parts[2], lineno)
            elif line.startswith(".output"):
                if len(parts) < 3 or parts[3:] not in ([], ["inv"]):
                    raise ParseError(
                        f"expected '.output NAME CELL [inv]', got {line!r}", lineno
                    )
                cell = _parse_address(parts[2], lineno)
                program.set_output(parts[1], cell, len(parts) == 4)
            elif line.startswith(".work"):
                for token in parts[1:]:
                    program.register_work_cell(_parse_address(token, lineno))
            else:
                if len(parts) != 3:
                    raise ParseError(f"malformed instruction {line!r}", lineno)
                a, b = (cls._parse_operand(tok, lineno) for tok in parts[:2])
                if not parts[2].startswith("@"):
                    raise ParseError(f"destination must be @addr, got {parts[2]!r}", lineno)
                z = _parse_address(parts[2][1:], lineno)
                program.append(Instruction(a, b, z, comment))
        if program is None:
            raise ParseError("no .plim header found")
        return program

    @staticmethod
    def _parse_operand(token: str, lineno: int) -> Operand:
        if token in ("0", "1"):
            return Operand.const(int(token))
        if token.startswith("@"):
            return Operand.cell(_parse_address(token[1:], lineno))
        raise ParseError(f"malformed operand {token!r}", lineno)


#: cells a program may address and a machine may hold.  The machine sizes
#: its arrays by the highest address, so this bounds what a tiny ``.plim``
#: file can make it allocate.  Compiled programs sit far below it: the
#: largest registry circuit at paper scale (mem_ctrl) addresses 2,439
#: cells, and its controller image (data plus encoded program) 3.3M.
MAX_CELLS = 1 << 23


def _parse_address(token: str, lineno: int) -> int:
    """A cell address token of a ``.plim`` file (``ParseError`` if bad)."""
    try:
        address = int(token)
    except ValueError:
        address = -1
    if address < 0:
        raise ParseError(f"malformed cell address {token!r}", lineno)
    if address >= MAX_CELLS:
        raise ParseError(
            f"cell address {token} is past the {MAX_CELLS}-cell limit", lineno
        )
    return address
