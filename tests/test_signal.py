"""Unit tests for repro.mig.signal."""

import pytest

from repro.mig.signal import Signal


class TestConstruction:
    def test_make_plain(self):
        s = Signal.make(5)
        assert s.node == 5
        assert not s.inverted

    def test_make_inverted(self):
        s = Signal.make(5, inverted=True)
        assert s.node == 5
        assert s.inverted

    def test_encoding_is_aiger_style(self):
        assert int(Signal.make(3, False)) == 6
        assert int(Signal.make(3, True)) == 7

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            Signal.make(-1)


class TestInversion:
    def test_invert_flips(self):
        s = Signal.make(2)
        assert (~s).inverted
        assert (~s).node == 2

    def test_double_invert_is_identity(self):
        s = Signal.make(7, True)
        assert ~~s == s

    def test_xor_inversion(self):
        s = Signal.make(4)
        assert s.xor_inversion(True) == ~s
        assert s.xor_inversion(False) == s
        assert (~s).xor_inversion(True) == s


class TestConstants:
    def test_const0(self):
        assert Signal.CONST0.is_const
        assert Signal.CONST0.const_value == 0

    def test_const1(self):
        assert Signal.CONST1.is_const
        assert Signal.CONST1.const_value == 1

    def test_const1_is_inverted_const0(self):
        assert ~Signal.CONST0 == Signal.CONST1

    def test_non_const(self):
        s = Signal.make(3)
        assert not s.is_const
        with pytest.raises(ValueError):
            _ = s.const_value


class TestIntBehaviour:
    def test_hashable_and_equal(self):
        assert Signal.make(3) == Signal.make(3)
        assert len({Signal.make(3), Signal.make(3), Signal.make(4)}) == 2

    def test_sortable(self):
        signals = [Signal.make(2, True), Signal.make(1), Signal.make(2)]
        assert sorted(signals) == [Signal.make(1), Signal.make(2), Signal.make(2, True)]

    def test_repr(self):
        assert repr(Signal.make(3, True)) == "~s3"
        assert repr(Signal.make(3)) == "s3"
        assert repr(Signal.CONST0) == "Signal.CONST0"
        assert repr(Signal.CONST1) == "Signal.CONST1"
