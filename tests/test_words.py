"""Unit tests for repro.mig.words (word-level arithmetic builders)."""

import pytest

from repro.errors import MigError
from repro.mig.build import LogicBuilder
from repro.mig.simulate import evaluate
from repro.mig.words import (
    add,
    barrel_rotate_left,
    barrel_shift_left,
    constant_word,
    divide,
    equal,
    isqrt,
    leading_one_index,
    less_than,
    multiply,
    mux_word,
    negate,
    popcount,
    square,
    sub,
    zero_extend,
)

from conftest import read_word, word_assignment


def build_and_eval(setup, assignment):
    """setup(builder) builds outputs; returns evaluate() results."""
    builder = LogicBuilder()
    setup(builder)
    return evaluate(builder.mig, assignment)


W = 5  # word width used in most tests
ALL = (1 << W) - 1


def binary_op_cases():
    return [(3, 9), (0, 0), (ALL, 1), (17, 17), (ALL, ALL), (1, 30)]


class TestAddSub:
    @pytest.mark.parametrize("x,y", binary_op_cases())
    def test_add(self, x, y):
        def setup(b):
            s, c = add(b, b.inputs(W, "a"), b.inputs(W, "b"))
            b.outputs(s, "s")
            b.output(c, "c")

        out = build_and_eval(setup, word_assignment("a", x, W) | word_assignment("b", y, W))
        assert read_word(out, "s", W) | (out["c"] << W) == x + y

    @pytest.mark.parametrize("x,y", binary_op_cases())
    def test_sub(self, x, y):
        def setup(b):
            d, no_borrow = sub(b, b.inputs(W, "a"), b.inputs(W, "b"))
            b.outputs(d, "d")
            b.output(no_borrow, "nb")

        out = build_and_eval(setup, word_assignment("a", x, W) | word_assignment("b", y, W))
        assert read_word(out, "d", W) == (x - y) % (1 << W)
        assert out["nb"] == int(x >= y)

    def test_width_mismatch(self):
        builder = LogicBuilder()
        with pytest.raises(MigError):
            add(builder, builder.inputs(3, "a"), builder.inputs(4, "b"))

    def test_negate(self):
        def setup(b):
            b.outputs(negate(b, b.inputs(W, "a")), "n")

        for x in (0, 1, 12, ALL):
            out = build_and_eval(setup, word_assignment("a", x, W))
            assert read_word(out, "n", W) == (-x) % (1 << W)


class TestComparisons:
    @pytest.mark.parametrize("x,y", binary_op_cases())
    def test_less_than(self, x, y):
        def setup(b):
            b.output(less_than(b, b.inputs(W, "a"), b.inputs(W, "b")), "lt")

        out = build_and_eval(setup, word_assignment("a", x, W) | word_assignment("b", y, W))
        assert out["lt"] == int(x < y)

    @pytest.mark.parametrize("x,y", binary_op_cases())
    def test_equal(self, x, y):
        def setup(b):
            b.output(equal(b, b.inputs(W, "a"), b.inputs(W, "b")), "eq")

        out = build_and_eval(setup, word_assignment("a", x, W) | word_assignment("b", y, W))
        assert out["eq"] == int(x == y)

    @pytest.mark.parametrize("x,y", binary_op_cases())
    def test_max_word(self, x, y):
        def setup(b):
            a, c = b.inputs(W, "a"), b.inputs(W, "b")
            b.outputs(mux_word(b, less_than(b, a, c), c, a), "m")

        out = build_and_eval(setup, word_assignment("a", x, W) | word_assignment("b", y, W))
        assert read_word(out, "m", W) == max(x, y)


class TestMux:
    def test_mux_word(self):
        def setup(b):
            s = b.input("s")
            b.outputs(mux_word(b, s, b.inputs(W, "a"), b.inputs(W, "b")), "m")

        base = word_assignment("a", 21, W) | word_assignment("b", 9, W)
        assert read_word(build_and_eval(setup, base | {"s": 1}), "m", W) == 21
        assert read_word(build_and_eval(setup, base | {"s": 0}), "m", W) == 9


class TestMultiply:
    @pytest.mark.parametrize("x,y", [(0, 0), (1, 19), (7, 6), (ALL, ALL), (12, 5)])
    def test_full_product(self, x, y):
        def setup(b):
            b.outputs(multiply(b, b.inputs(W, "a"), b.inputs(W, "b")), "p")

        out = build_and_eval(setup, word_assignment("a", x, W) | word_assignment("b", y, W))
        assert read_word(out, "p", 2 * W) == x * y

    def test_truncated_product(self):
        def setup(b):
            b.outputs(multiply(b, b.inputs(W, "a"), b.inputs(W, "b"), result_width=W), "p")

        out = build_and_eval(setup, word_assignment("a", 9, W) | word_assignment("b", 7, W))
        assert read_word(out, "p", W) == (9 * 7) % (1 << W)

    @pytest.mark.parametrize("x", [0, 1, 5, 23, ALL])
    def test_square(self, x):
        def setup(b):
            b.outputs(square(b, b.inputs(W, "a")), "p")

        out = build_and_eval(setup, word_assignment("a", x, W))
        assert read_word(out, "p", 2 * W) == x * x


class TestShifters:
    @pytest.mark.parametrize("amount", range(8))
    def test_rotate_left(self, amount):
        def setup(b):
            data = b.inputs(8, "d")
            sel = b.inputs(3, "s")
            b.outputs(barrel_rotate_left(b, data, sel), "q")

        x = 0b10110001
        out = build_and_eval(
            setup, word_assignment("d", x, 8) | word_assignment("s", amount, 3)
        )
        expected = ((x << amount) | (x >> (8 - amount))) & 0xFF if amount else x
        assert read_word(out, "q", 8) == expected

    @pytest.mark.parametrize("amount", range(8))
    def test_shift_left(self, amount):
        def setup(b):
            data = b.inputs(8, "d")
            sel = b.inputs(3, "s")
            b.outputs(barrel_shift_left(b, data, sel), "q")

        x = 0b10110001
        out = build_and_eval(
            setup, word_assignment("d", x, 8) | word_assignment("s", amount, 3)
        )
        assert read_word(out, "q", 8) == (x << amount) & 0xFF


class TestDivide:
    @pytest.mark.parametrize(
        "n,d", [(13, 3), (0, 5), (31, 1), (31, 31), (7, 9), (20, 4)]
    )
    def test_quotient_remainder(self, n, d):
        def setup(b):
            q, r = divide(b, b.inputs(W, "n"), b.inputs(W, "d"))
            b.outputs(q, "q")
            b.outputs(r, "r")

        out = build_and_eval(setup, word_assignment("n", n, W) | word_assignment("d", d, W))
        assert read_word(out, "q", W) == n // d
        assert read_word(out, "r", W) == n % d

    def test_divide_by_zero_convention(self):
        def setup(b):
            q, r = divide(b, b.inputs(W, "n"), b.inputs(W, "d"))
            b.outputs(q, "q")
            b.outputs(r, "r")

        out = build_and_eval(setup, word_assignment("n", 13, W) | word_assignment("d", 0, W))
        assert read_word(out, "q", W) == ALL
        assert read_word(out, "r", W) == 13


class TestIsqrt:
    @pytest.mark.parametrize("x", [0, 1, 2, 3, 4, 15, 16, 17, 49, 63])
    def test_values(self, x):
        def setup(b):
            b.outputs(isqrt(b, b.inputs(6, "x")), "rt")

        out = build_and_eval(setup, word_assignment("x", x, 6))
        assert read_word(out, "rt", 3) == int(x ** 0.5)

    def test_odd_width_padded(self):
        def setup(b):
            b.outputs(isqrt(b, b.inputs(5, "x")), "rt")

        out = build_and_eval(setup, word_assignment("x", 26, 5))
        assert read_word(out, "rt", 3) == 5


class TestPopcount:
    @pytest.mark.parametrize("x", [0, 1, 0b1011, 0x7F, 0b1010101])
    def test_values(self, x):
        def setup(b):
            b.outputs(popcount(b, b.inputs(7, "v")), "c")

        out = build_and_eval(setup, word_assignment("v", x, 7))
        assert read_word(out, "c", 3) == bin(x).count("1")

    def test_empty(self):
        builder = LogicBuilder()
        builder.input("dummy")
        result = popcount(builder, [])
        assert len(result) == 1


class TestLeadingOne:
    @pytest.mark.parametrize("x", [0, 1, 2, 0b100100, 0b111111, 0b010000])
    def test_index(self, x):
        def setup(b):
            idx, found = leading_one_index(b, b.inputs(6, "x"))
            b.outputs(idx, "i")
            b.output(found, "found")

        out = build_and_eval(setup, word_assignment("x", x, 6))
        assert out["found"] == int(x != 0)
        if x:
            assert read_word(out, "i", 3) == x.bit_length() - 1


class TestHelpers:
    def test_constant_word(self):
        builder = LogicBuilder()
        builder.input("dummy")
        word = constant_word(builder, 0b101, 3)
        values = [s.const_value for s in word]
        assert values == [1, 0, 1]

    def test_zero_extend(self):
        builder = LogicBuilder()
        word = builder.inputs(2, "a")
        extended = zero_extend(word, 4, builder)
        assert len(extended) == 4
        with pytest.raises(MigError):
            zero_extend(extended, 2, builder)

