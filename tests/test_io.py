"""Unit tests for the three circuit file formats (.mig, .blif, .aag)."""

import io

import pytest

from repro.errors import ParseError
from repro.mig.graph import Mig
from repro.mig.io_aiger import read_aiger, write_aiger
from repro.mig.io_blif import read_blif, write_blif
from repro.mig.io_mig import read_mig, write_mig
from repro.mig.signal import Signal
from repro.mig.simulate import truth_tables

from conftest import random_mig


def roundtrip(mig, writer, reader):
    buffer = io.StringIO()
    writer(mig, buffer)
    buffer.seek(0)
    return reader(buffer)


class TestMigFormat:
    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_function(self, seed):
        mig = random_mig(seed, num_pis=4, num_gates=15)
        back = roundtrip(mig, write_mig, read_mig)
        assert truth_tables(back) == truth_tables(mig)

    def test_roundtrip_preserves_child_order(self):
        mig = Mig(name="ord")
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        g = mig.add_maj(c, ~a, b)
        mig.add_po(g, "f")
        back = roundtrip(mig, write_mig, read_mig)
        gate = next(iter(back.gates()))
        names = [back.signal_name(s) for s in back.children(gate)]
        assert names == ["c", "~a", "b"]

    def test_roundtrip_name_and_interface(self):
        mig = random_mig(1, num_pis=3, num_gates=8)
        back = roundtrip(mig, write_mig, read_mig)
        assert back.name == mig.name
        assert back.pi_names() == mig.pi_names()
        assert back.po_names() == mig.po_names()

    def test_parse_error_unknown_signal(self):
        text = ".mig t\n.pi a\nn1 = <a, b, 0>\n.end\n"
        with pytest.raises(ParseError):
            read_mig(io.StringIO(text))

    def test_parse_error_no_header(self):
        with pytest.raises(ParseError):
            read_mig(io.StringIO("n1 = <a, b, 0>\n"))

    def test_parse_error_bad_gate(self):
        with pytest.raises(ParseError):
            read_mig(io.StringIO(".mig t\n.pi a b\nn1 = <a, b>\n.end\n"))

    def test_comments_and_blank_lines(self):
        text = """
.mig demo
# a comment
.pi a b

n1 = <a, ~b, 1>   # trailing comment
.po f = ~n1
.end
"""
        mig = read_mig(io.StringIO(text))
        assert mig.num_gates == 1
        assert mig.pos()[0].inverted

    def test_file_path_roundtrip(self, tmp_path):
        mig = random_mig(5, num_pis=3, num_gates=10)
        path = tmp_path / "circuit.mig"
        write_mig(mig, str(path))
        assert truth_tables(read_mig(str(path))) == truth_tables(mig)


class TestBlif:
    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_function(self, seed):
        mig = random_mig(seed, num_pis=4, num_gates=15)
        back = roundtrip(mig, write_blif, read_blif)
        assert truth_tables(back) == truth_tables(mig)

    def test_read_sop(self):
        text = """
.model test
.inputs a b c
.outputs f
.names a b c f
11- 1
--1 1
.end
"""
        mig = read_blif(io.StringIO(text))
        tables = truth_tables(mig)
        assert tables["f"] == ((0b10101010 & 0b11001100) | 0b11110000)

    def test_read_offset_cover(self):
        text = ".model t\n.inputs a\n.outputs f\n.names a f\n1 0\n.end\n"
        mig = read_blif(io.StringIO(text))
        assert truth_tables(mig)["f"] == 0b01  # f = ~a

    def test_read_constant(self):
        text = ".model t\n.inputs a\n.outputs f\n.names f\n1\n.end\n"
        mig = read_blif(io.StringIO(text))
        assert truth_tables(mig)["f"] == 0b11

    def test_out_of_order_names(self):
        text = """
.model t
.inputs a b
.outputs f
.names t1 b f
11 1
.names a t1
0 1
.end
"""
        mig = read_blif(io.StringIO(text))
        assert truth_tables(mig)["f"] == (0b0101 & 0b1100)

    def test_latch_rejected(self):
        text = ".model t\n.inputs a\n.outputs f\n.latch a f\n.end\n"
        with pytest.raises(ParseError):
            read_blif(io.StringIO(text))

    def test_undriven_output_rejected(self):
        text = ".model t\n.inputs a\n.outputs f\n.end\n"
        with pytest.raises(ParseError):
            read_blif(io.StringIO(text))

    def test_line_continuation(self):
        text = ".model t\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n"
        mig = read_blif(io.StringIO(text))
        assert mig.num_pis == 2


#: text circuits with one byte that is not UTF-8, and the line it is on
NON_UTF8 = {
    "mig": (b".mig t\n.pi a b\nn1 = <a, b, 0>\n.po f = n1 \xff\n.end\n", 4),
    "mig-comment": (b".mig t\n# caf\xe9\n.pi a\n.po f = a\n.end\n", 2),
    "blif": (b".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\xff\n.end\n", 5),
    "blif-crlf": (b".model t\r\n.inputs \xfe\r\n.outputs f\r\n.end\r\n", 2),
}
READERS = {"mig": read_mig, "blif": read_blif}


class TestNonUtf8Text:
    """A byte that is not UTF-8 is a ParseError with its line, never a
    ``UnicodeDecodeError``."""

    @pytest.mark.parametrize("case", sorted(NON_UTF8))
    def test_path_raises_parse_error_with_line(self, case, tmp_path):
        data, line = NON_UTF8[case]
        path = tmp_path / f"bad.{case.split('-')[0]}"
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            READERS[case.split("-")[0]](str(path))
        assert info.value.line == line
        assert "not valid UTF-8" in str(info.value)

    @pytest.mark.parametrize("case", sorted(NON_UTF8))
    def test_binary_handle_raises_parse_error_with_line(self, case):
        data, line = NON_UTF8[case]
        with pytest.raises(ParseError) as info:
            READERS[case.split("-")[0]](io.BytesIO(data))
        assert info.value.line == line

    @pytest.mark.parametrize(
        "writer, reader", [(write_mig, read_mig), (write_blif, read_blif)]
    )
    def test_crlf_and_binary_handles_parse_like_text(self, writer, reader, tmp_path):
        mig = random_mig(3, num_pis=4, num_gates=12)
        buffer = io.StringIO()
        writer(mig, buffer)
        text = buffer.getvalue()
        path = tmp_path / "crlf"
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        expected = truth_tables(reader(io.StringIO(text)))
        assert truth_tables(reader(str(path))) == expected
        assert truth_tables(reader(io.BytesIO(text.encode("utf-8")))) == expected

    def test_later_errors_keep_their_line_numbers(self, tmp_path):
        path = tmp_path / "bad.mig"
        path.write_bytes(b".mig t\r\n.pi a\r\n\r\nn1 = <a, b, 0>\r\n")
        with pytest.raises(ParseError, match="line 4: unknown signal"):
            read_mig(str(path))


class TestAiger:
    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_function(self, seed):
        mig = random_mig(seed, num_pis=4, num_gates=15)
        back = roundtrip(mig, write_aiger, read_aiger)
        assert truth_tables(back) == truth_tables(mig)

    def test_read_simple_and(self):
        text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 x\ni1 y\no0 f\n"
        mig = read_aiger(io.StringIO(text))
        assert mig.pi_names() == ["x", "y"]
        assert truth_tables(mig)["f"] == 0b1000

    def test_read_inverted_output(self):
        text = "aag 1 1 0 1 0\n2\n3\n"
        mig = read_aiger(io.StringIO(text))
        assert truth_tables(mig)["o0"] == 0b01

    def test_read_constants(self):
        text = "aag 1 1 0 2 0\n2\n0\n1\n"
        mig = read_aiger(io.StringIO(text))
        tables = truth_tables(mig)
        assert tables["o0"] == 0
        assert tables["o1"] == 0b11

    def test_latches_rejected(self):
        with pytest.raises(ParseError):
            read_aiger(io.StringIO("aag 2 1 1 1 0\n2\n4 2\n2\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            read_aiger(io.StringIO("agg 1 1 0 1 0\n"))

    def test_maj_decomposition_size(self):
        """A majority gate becomes exactly four AIG ANDs."""
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        mig.add_po(mig.add_maj(a, b, c), "m")
        buffer = io.StringIO()
        write_aiger(mig, buffer)
        header = buffer.getvalue().splitlines()[0].split()
        assert int(header[5]) == 4
