"""The AIGER reader's error contract: only ``ParseError`` leaves it.

Malformed input of either flavour must fail with
:class:`~repro.errors.ParseError` — with the offending line number where
the format has lines — never with a bare ``ValueError`` from ``int()``,
an ``IndexError`` or a ``MigError``.  Sizes a header declares are checked
before anything is allocated for them, so a 30-byte header cannot make
the reader allocate gigabytes.  Both properties carry through to
``plimc`` (exit 2, no traceback) and to ``POST /compile`` (422
``parse-error``, not 500; see ``tests/serve/test_endpoints.py``).
"""

from __future__ import annotations

import io
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.registry import build
from repro.cli import main
from repro.errors import ParseError
from repro.mig.graph import _MAX_NODE, Mig
from repro.mig.io_aiger import read_aiger

from aiger_reference import aiger_bytes


def parse_error(data: bytes) -> ParseError:
    with pytest.raises(ParseError) as excinfo:
        read_aiger(io.BytesIO(data))
    return excinfo.value


class TestOnlyParseErrorEscapes:
    def test_non_numeric_and_field(self):
        error = parse_error(b"aag 3 2 0 1 1\n2\n4\n6\n6 2 x\n")
        assert error.line == 5

    def test_non_numeric_input_line(self):
        error = parse_error(b"aag 1 1 0 1 0\nx\n2\n")
        assert error.line == 2

    def test_non_numeric_output_line(self):
        error = parse_error(b"aag 1 1 0 1 0\n2\ny\n")
        assert error.line == 3

    def test_truncated_ascii_body(self):
        error = parse_error(b"aag 2 2 0 1 0\n2\n")
        assert "truncated" in str(error)

    @pytest.mark.parametrize("symbol", [b"ifoo bar", b"o0", b"i"])
    def test_malformed_ascii_symbol_line(self, symbol):
        error = parse_error(b"aag 1 1 0 1 0\n2\n2\n" + symbol + b"\n")
        assert error.line == 4

    @pytest.mark.parametrize("symbol", [b"ifoo bar", b"o0", b"i"])
    def test_malformed_binary_symbol_line(self, symbol):
        error = parse_error(b"aig 1 1 0 1 0\n2\n" + symbol + b"\n")
        assert error.line == 3

    def test_ascii_not_utf8(self):
        parse_error(b"aag 1 1 0 1 0\n2\n2\ni0 \xff\n")

    def test_literal_beyond_max_variable(self):
        error = parse_error(b"aag 1 1 0 1 0\n2\n6\n")
        assert error.line == 3

    def test_negative_literal(self):
        error = parse_error(b"aag 1 1 0 1 0\n-2\n2\n")
        assert error.line == 2

    def test_binary_output_beyond_max_variable(self):
        error = parse_error(b"aig 1 1 0 1 0\n9\n")
        assert error.line == 2

    @pytest.mark.parametrize(
        "row, literal", [(b"4 6 2", 6), (b"4 2 6", 6), (b"4 7 7", 7)]
    )
    def test_and_fanin_used_before_definition(self, row, literal):
        error = parse_error(b"aag 3 1 0 1 2\n2\n4\n" + row + b"\n6 2 2\n")
        assert f"literal {literal} used before definition" in str(error)

    def test_output_used_before_definition(self):
        error = parse_error(b"aag 2 1 0 1 0\n2\n5\n")
        assert "literal 5 used before definition" in str(error)

    def test_binary_and_reads_itself(self):
        # gate 0 has lhs 4; delta0 = 0 makes rhs0 = 4, not yet defined
        error = parse_error(b"aig 2 1 0 1 1\n4\n\x00\x02")
        assert "literal 4 used before definition" in str(error)

    def test_duplicate_input_names(self):
        parse_error(b"aag 2 2 0 0 0\n2\n4\ni0 x\ni1 x\n")

    def test_negative_header_field(self):
        parse_error(b"aag 1 -1 0 0 0\n")


class TestHeaderBounds:
    @pytest.mark.parametrize("magic", [b"aag", b"aig"])
    def test_max_variable_above_node_limit(self, magic):
        m = _MAX_NODE + 1
        error = parse_error(b"%s %d %d 0 0 0\n" % (magic, m, m))
        assert error.line == 1 and "node limit" in str(error)

    def test_binary_ands_beyond_remaining_bytes(self):
        # 3 AND gates need at least 6 bytes of deltas; 4 follow
        error = parse_error(b"aig 4 1 0 1 3\n2\n\x02\x01\x02\x01")
        assert "3 AND gates declared" in str(error)

    def test_binary_outputs_beyond_remaining_bytes(self):
        error = parse_error(b"aig 1 1 0 1000 0\n2\n")
        assert "1000 outputs declared" in str(error)

    def test_thirty_byte_header_fails_fast_in_bounded_memory(self):
        header = b"aig 100000000 100000000 0 1 0\n"
        assert len(header) == 30
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ParseError):
                read_aiger(io.BytesIO(header + b"2\n"))
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 10 * 2**20


SEEDS = {flavour: aiger_bytes(build("ctrl", "ci"), flavour == "aig") for flavour in ("aag", "aig")}


@settings(max_examples=200, deadline=None)
@given(
    flavour=st.sampled_from(sorted(SEEDS)),
    edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=4),
)
def test_byte_mutants_raise_only_parse_error(flavour, edits):
    """Overwrite a few bytes of a valid file: the reader either returns
    a graph or raises ``ParseError`` — nothing else escapes."""
    data = bytearray(SEEDS[flavour])
    for position, value in edits:
        data[position % len(data)] = value
    try:
        mig = read_aiger(io.BytesIO(bytes(data)))
    except ParseError:
        return
    assert isinstance(mig, Mig)


def test_cli_reports_bad_aag_without_traceback(tmp_path, capsys):
    path = tmp_path / "bad.aag"
    path.write_bytes(b"aag 3 2 0 1 1\n2\n4\n6\n6 2 x\n")
    assert main(["stats", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err

