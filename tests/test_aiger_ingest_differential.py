"""Differential test of the encoding-level AIGER reader.

The oracle is :func:`aiger_reference.reference_read_aiger`, the
Signal/LogicBuilder reader the encoding-level one replaced.  The
shipped :func:`~repro.mig.io_aiger.read_aiger` must produce exactly the
same graph — the same ``_ca/_cb/_cc/_kind`` arrays, PI/PO names, PO
encodings and fingerprint — for the registry circuits in both flavours
and for random AIGs that exercise strash merges, constant folding,
complemented and constant outputs and unreachable ANDs.  Identical
arrays mean identical ``.plim`` programs and cache keys downstream.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.mig.graph import Mig
from repro.mig.io_aiger import read_aiger

from aiger_reference import aiger_bytes, reference_read_aiger


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------


def assert_same_graph(got: Mig, want: Mig) -> None:
    assert got._kind == want._kind
    assert got._ca == want._ca
    assert got._cb == want._cb
    assert got._cc == want._cc
    assert got.pi_names() == want.pi_names()
    assert got.po_names() == want.po_names()
    assert [int(po) for po in got.pos()] == [int(po) for po in want.pos()]
    assert got.name == want.name
    assert got.fingerprint() == want.fingerprint()


@pytest.mark.parametrize("flavour", ["aag", "aig"])
@pytest.mark.parametrize("scale", ["ci", "default"])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_registry_circuit_reads_identically(name, scale, flavour):
    data = aiger_bytes(build(name, scale), binary=flavour == "aig")
    assert_same_graph(read_aiger(io.BytesIO(data)), reference_read_aiger(data))


# ----------------------------------------------------------------------
# random AIGs, written directly as literal rows
# ----------------------------------------------------------------------


@st.composite
def aiger_files(draw) -> tuple[bytes, bytes]:
    """One random combinational AIG as ``(aag bytes, aig bytes)``.

    Fanins are drawn from every literal defined so far — constants,
    inputs, earlier ANDs, either polarity — so rows repeat (strash
    merges), fold (constant, equal or complementary fanins) and go
    unread (unreachable ANDs); outputs may be constants or complemented.
    The ASCII rows keep the drawn fanin order; the binary ones sort it
    descending as the delta encoding requires.
    """
    num_in = draw(st.integers(0, 4))
    num_and = draw(st.integers(0, 24))
    rows = []
    for i in range(num_and):
        top = 2 * (num_in + i) + 1
        rhs = draw(st.lists(st.integers(0, top), min_size=2, max_size=2))
        rows.append((2 * (num_in + i + 1), rhs[0], rhs[1]))
    max_var = num_in + num_and
    outputs = draw(st.lists(st.integers(0, 2 * max_var + 1), max_size=4))
    named_in = draw(st.lists(st.booleans(), min_size=num_in, max_size=num_in))
    named_out = draw(st.lists(st.booleans(), min_size=len(outputs), max_size=len(outputs)))
    symbols = [f"i{k} in{k}\n" for k, named in enumerate(named_in) if named]
    symbols += [f"o{k} out{k}\n" for k, named in enumerate(named_out) if named]
    comment = draw(st.sampled_from(["", "c\nrandom aig\n"]))

    ascii_lines = [f"aag {max_var} {num_in} 0 {len(outputs)} {num_and}\n"]
    ascii_lines += [f"{2 * (k + 1)}\n" for k in range(num_in)]
    ascii_lines += [f"{literal}\n" for literal in outputs]
    ascii_lines += [f"{lhs} {a} {b}\n" for lhs, a, b in rows]
    aag = "".join(ascii_lines + symbols).encode() + comment.encode()

    deltas = bytearray()
    for lhs, a, b in rows:
        a, b = max(a, b), min(a, b)
        for delta in (lhs - a, a - b):
            while delta >= 0x80:
                deltas.append(0x80 | (delta & 0x7F))
                delta >>= 7
            deltas.append(delta)
    header = f"aig {max_var} {num_in} 0 {len(outputs)} {num_and}\n"
    aig = (
        (header + "".join(f"{literal}\n" for literal in outputs)).encode()
        + bytes(deltas)
        + "".join(symbols).encode()
        + comment.encode()
    )
    return aag, aig


@settings(max_examples=150, deadline=None)
@given(files=aiger_files())
def test_random_aigs_read_identically(files):
    for data in files:
        assert_same_graph(read_aiger(io.BytesIO(data)), reference_read_aiger(data))
