"""Unit tests for repro.plim.program."""

import time
import tracemalloc

import pytest

from repro.errors import ParseError
from repro.plim.isa import Instruction, ONE, Operand, ZERO
from repro.plim.program import MAX_CELLS, OutputLocation, Program


@pytest.fixture
def small_program():
    program = Program(input_cells={"a": 0, "b": 1}, name="demo")
    program.register_work_cell(2)
    program.append(Instruction(ZERO, ONE, 2, "X1 <- 0"))
    program.append(Instruction(Operand.cell(0), ZERO, 2, "X1 <- a"))
    program.set_output("f", 2)
    return program


class TestBasics:
    def test_counts(self, small_program):
        assert small_program.num_instructions == 2
        assert small_program.num_rrams == 1
        assert len(small_program) == 2

    def test_num_cells(self, small_program):
        assert small_program.num_cells == 3

    def test_iteration(self, small_program):
        assert [i.z for i in small_program] == [2, 2]

    def test_work_cell_dedup(self, small_program):
        small_program.register_work_cell(2)
        small_program.register_work_cell(5)
        assert small_program.work_cells == [2, 5]

    def test_output_location(self, small_program):
        small_program.set_output("g", 2, inverted=True)
        assert small_program.output_cells["g"] == OutputLocation(2, True)

    def test_repr(self, small_program):
        assert "2 instructions" in repr(small_program)


class TestListing:
    def test_paper_style(self, small_program):
        listing = small_program.listing()
        lines = listing.splitlines()
        assert lines[0].startswith("01: 0, 1, @X1")
        assert "X1 <- 0" in lines[0]
        assert "a, 0, @X1" in lines[1]  # input cell rendered by name

    def test_without_comments(self, small_program):
        assert "X1 <- 0" not in small_program.listing(with_comments=False)

    def test_cell_namer(self, small_program):
        namer = small_program.cell_namer()
        assert namer(0) == "a"
        assert namer(2) == "@X1"
        assert namer(99) == "@99"


class TestSerialization:
    def test_roundtrip(self, small_program):
        text = small_program.to_text()
        back = Program.from_text(text)
        assert back.name == "demo"
        assert back.input_cells == {"a": 0, "b": 1}
        assert back.work_cells == [2]
        assert back.output_cells == {"f": OutputLocation(2, False)}
        assert [str(i) for i in back] == [str(i) for i in small_program]

    def test_roundtrip_preserves_comments(self, small_program):
        back = Program.from_text(small_program.to_text())
        assert back.instructions[0].comment == "X1 <- 0"

    def test_inverted_output_roundtrip(self):
        program = Program(name="t")
        program.set_output("f", 3, inverted=True)
        back = Program.from_text(program.to_text())
        assert back.output_cells["f"].inverted

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Program.from_text("0 1 @2\n")  # no header
        with pytest.raises(ParseError):
            Program.from_text(".plim t\n0 1\n")  # malformed instruction
        with pytest.raises(ParseError):
            Program.from_text(".plim t\n0 1 2\n")  # destination missing @
        with pytest.raises(ParseError):
            Program.from_text(".plim t\nx 1 @2\n")  # bad operand
        with pytest.raises(ParseError):
            Program.from_text("")  # empty


#: malformed ``.plim`` inputs that once escaped ``from_text`` as a bare
#: ``ValueError`` or ``UnicodeDecodeError``, with the line they fail on
MALFORMED_PLIM = {
    "input-cell-not-a-number": (b".plim t\n.input a zz\n.end\n", 2),
    "input-cell-missing": (b".plim t\n.input a\n.end\n", 2),
    "operand-not-a-number": (b".plim t\n.input a 0\n0 @x @7\n.end\n", 3),
    "not-utf8": (b".plim t\n.input \xff\xfe 0\n.end\n", 2),
    # valid syntax, but the machine would size its cell arrays by the
    # highest address: 100M cells is ~3 GB, 4e12 a MemoryError
    "address-past-cell-cap": (
        b".plim\n.input a 0\n.output y 100000000\n0 @0 @100000000\n.end\n", 3
    ),
    "huge-address": (
        b".plim\n.input a 0\n.output y 4000000000000\n0 @0 @4000000000000\n.end\n",
        3,
    ),
}

#: the MALFORMED_PLIM cases that used to size a huge cell array
CELL_BOMBS = ("address-past-cell-cap", "huge-address")


def fails_fast_and_small(call, error):
    """Assert ``call()`` raises ``error`` in under 0.1 s and 50 MB."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(error):
            call()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    assert peak < 50 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestMalformedText:
    """Only ``ParseError`` leaves ``from_text``, and it names the line."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_PLIM))
    def test_parse_error_with_line_number(self, case):
        data, line = MALFORMED_PLIM[case]
        with pytest.raises(ParseError) as excinfo:
            Program.from_text(data)
        assert excinfo.value.line == line
        assert str(excinfo.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize(
        "text",
        [
            ".plim t\n.output f\n",
            ".plim t\n.output f 3 bogus\n",
            ".plim t\n.work 4 q\n",
            ".plim t\n0 1 @-1\n",
            ".plim t\n@-3 1 @2\n",
            ".plim t\n0 1 @99999999999999999999999\n",
        ],
    )
    def test_other_malformed_lines(self, text):
        with pytest.raises(ParseError) as excinfo:
            Program.from_text(text)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("case", CELL_BOMBS)
    def test_cell_cap_fails_fast_and_small(self, case):
        data, _ = MALFORMED_PLIM[case]
        fails_fast_and_small(lambda: Program.from_text(data), ParseError)

    def test_highest_address_below_cap_parses(self):
        text = f".plim t\n0 1 @{MAX_CELLS - 1}\n.end\n"
        assert Program.from_text(text).num_cells == MAX_CELLS

    def test_bytes_round_trip(self, small_program):
        back = Program.from_text(small_program.to_text().encode("utf-8"))
        assert back.to_text() == small_program.to_text()
