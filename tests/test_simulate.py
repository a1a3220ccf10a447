"""Unit tests for repro.mig.simulate (bit-parallel simulation)."""

import pytest

from repro.errors import MigError
from repro.mig.graph import Mig
from repro.mig.signal import Signal
from repro.mig.simulate import (
    evaluate,
    output_tables,
    simulate,
    simulate_outputs,
    truth_tables,
)


@pytest.fixture
def maj3():
    mig = Mig()
    a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
    mig.add_po(mig.add_maj(a, b, c), "m")
    return mig


class TestSinglePattern:
    @pytest.mark.parametrize(
        "a,b,c,expected",
        [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 1), (0, 1, 1, 1), (1, 1, 1, 1)],
    )
    def test_majority(self, maj3, a, b, c, expected):
        assert evaluate(maj3, {"a": a, "b": b, "c": c})["m"] == expected

    def test_positional_inputs(self, maj3):
        assert simulate(maj3, [1, 1, 0])["m"] == 1

    def test_positional_wrong_arity(self, maj3):
        with pytest.raises(MigError):
            simulate(maj3, [1, 1])

    def test_missing_input_rejected(self, maj3):
        with pytest.raises(MigError):
            simulate(maj3, {"a": 1, "b": 0})


class TestBitParallel:
    def test_packed_patterns(self, maj3):
        # patterns: (a,b,c) = (1,1,0), (0,1,1), (0,0,1), (1,0,0)
        out = simulate(maj3, {"a": 0b1001, "b": 0b0011, "c": 0b0110}, 4)
        assert out["m"] == 0b0011

    def test_mask_clips_extra_bits(self, maj3):
        out = simulate(maj3, {"a": 0xFF, "b": 0xFF, "c": 0xFF}, 2)
        assert out["m"] == 0b11

    def test_invalid_pattern_count(self, maj3):
        with pytest.raises(ValueError):
            simulate(maj3, {"a": 0, "b": 0, "c": 0}, 0)


class TestComplementHandling:
    def test_complemented_po(self):
        mig = Mig()
        a = mig.add_pi("a")
        mig.add_po(~a, "na")
        assert truth_tables(mig)["na"] == 0b01

    def test_complemented_children(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        # ⟨~a b 0⟩ = ~a AND b
        mig.add_po(mig.add_maj(~a, b, Signal.CONST0), "f")
        assert truth_tables(mig)["f"] == 0b0100

    def test_constant_pos(self):
        mig = Mig()
        mig.add_pi("a")
        mig.add_po(Signal.CONST0, "zero")
        mig.add_po(Signal.CONST1, "one")
        tables = truth_tables(mig)
        assert tables["zero"] == 0
        assert tables["one"] == 0b11


class TestTruthTables:
    def test_xor_table(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        o = mig.add_maj(a, b, Signal.CONST1)
        n = mig.add_maj(a, b, Signal.CONST0)
        mig.add_po(mig.add_maj(o, ~n, Signal.CONST0), "x")
        assert truth_tables(mig)["x"] == 0b0110

    def test_too_many_inputs_rejected(self):
        mig = Mig()
        for i in range(25):
            mig.add_pi(f"x{i}")
        mig.add_po(mig.pis()[0], "f")
        with pytest.raises(MigError):
            truth_tables(mig)


class TestDuplicateOutputNames:
    def duplicate_mig(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        g = mig.add_maj(a, b, Signal.CONST0)
        mig.add_po(g, "f")
        mig.add_po(~g, "f")  # same name, different function
        return mig

    def test_simulate_rejects_duplicate_names(self):
        """Regression: the name-keyed dict silently dropped the first of
        two same-named outputs."""
        with pytest.raises(MigError, match="duplicate primary output"):
            simulate(self.duplicate_mig(), {"a": 1, "b": 1})

    def test_truth_tables_reject_duplicate_names(self):
        with pytest.raises(MigError, match="duplicate primary output"):
            truth_tables(self.duplicate_mig())

    def test_simulate_outputs_by_index(self):
        values = simulate_outputs(self.duplicate_mig(), {"a": 1, "b": 1})
        assert values == [1, 0]

    def test_output_tables_by_index(self):
        tables = output_tables(self.duplicate_mig())
        assert tables[0] == 0b1000  # a AND b
        assert tables[1] == 0b0111

    def test_output_tables_match_truth_tables_without_duplicates(self, maj3):
        assert output_tables(maj3) == [truth_tables(maj3)["m"]]
