"""Word-level construction helpers: ripple adders, multipliers, shifters.

A *word* is a little-endian list of signals (``word[0]`` is the LSB).  All
functions take a :class:`~repro.mig.build.LogicBuilder` and return words or
signals in the same MIG; they are the building blocks of the EPFL-style
benchmark generators in :mod:`repro.circuits`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import MigError
from repro.mig.build import LogicBuilder
from repro.mig.signal import Signal

Word = list


def constant_word(builder: LogicBuilder, value: int, width: int) -> Word:
    """Word holding the two's-complement constant ``value``."""
    return [builder.const((value >> i) & 1) for i in range(width)]


def zero_extend(word: Sequence[Signal], width: int, builder: LogicBuilder) -> Word:
    """Pad ``word`` with constant zeros up to ``width`` bits."""
    if len(word) > width:
        raise MigError(f"cannot zero-extend a {len(word)}-bit word to {width} bits")
    return list(word) + [builder.const(0)] * (width - len(word))


def add(
    builder: LogicBuilder,
    a: Sequence[Signal],
    b: Sequence[Signal],
    carry_in: Optional[Signal] = None,
) -> tuple[Word, Signal]:
    """Ripple-carry addition; returns ``(sum_word, carry_out)``."""
    if len(a) != len(b):
        raise MigError(f"word widths differ: {len(a)} vs {len(b)}")
    carry = carry_in if carry_in is not None else builder.const(0)
    total: Word = []
    for x, y in zip(a, b):
        s, carry = builder.full_adder(x, y, carry)
        total.append(s)
    return total, carry


def sub(
    builder: LogicBuilder,
    a: Sequence[Signal],
    b: Sequence[Signal],
) -> tuple[Word, Signal]:
    """Two's-complement subtraction ``a - b``.

    Returns ``(difference, no_borrow)``: the second element is 1 when
    ``a >= b`` (i.e. the carry out of ``a + ~b + 1``).
    """
    inverted = [~bit for bit in b]
    return add(builder, a, inverted, carry_in=builder.const(1))


def negate(builder: LogicBuilder, a: Sequence[Signal]) -> Word:
    """Two's-complement negation."""
    zero = constant_word(builder, 0, len(a))
    difference, _ = sub(builder, zero, a)
    return difference


def less_than(builder: LogicBuilder, a: Sequence[Signal], b: Sequence[Signal]) -> Signal:
    """Unsigned ``a < b`` (the borrow of ``a - b``)."""
    _, no_borrow = sub(builder, a, b)
    return ~no_borrow


def equal(builder: LogicBuilder, a: Sequence[Signal], b: Sequence[Signal]) -> Signal:
    """Bitwise equality of two words."""
    if len(a) != len(b):
        raise MigError(f"word widths differ: {len(a)} vs {len(b)}")
    return builder.and_reduce([builder.xnor(x, y) for x, y in zip(a, b)])


def mux_word(
    builder: LogicBuilder,
    select: Signal,
    if_true: Sequence[Signal],
    if_false: Sequence[Signal],
) -> Word:
    """Word-level 2:1 multiplexer."""
    if len(if_true) != len(if_false):
        raise MigError(f"word widths differ: {len(if_true)} vs {len(if_false)}")
    return [builder.mux(select, t, e) for t, e in zip(if_true, if_false)]


def multiply(
    builder: LogicBuilder,
    a: Sequence[Signal],
    b: Sequence[Signal],
    result_width: Optional[int] = None,
) -> Word:
    """Unsigned array multiplication, truncated to ``result_width`` bits.

    The classic shift-and-add array: partial products are AND planes, each
    row added with a ripple adder.  ``result_width`` defaults to
    ``len(a) + len(b)`` (the full product).
    """
    if result_width is None:
        result_width = len(a) + len(b)
    accumulator = constant_word(builder, 0, result_width)
    for j, bj in enumerate(b):
        if j >= result_width:
            break
        row_width = min(len(a), result_width - j)
        partial = [builder.and_(a_i, bj) for a_i in a[:row_width]]
        upper = accumulator[j : j + row_width]
        summed, carry = add(builder, upper, partial)
        accumulator[j : j + row_width] = summed
        carry_pos = j + row_width
        # Propagate the carry through the remaining accumulator bits.
        while carry_pos < result_width:
            s, carry = builder.half_adder(accumulator[carry_pos], carry)
            accumulator[carry_pos] = s
            carry_pos += 1
    return accumulator


def square(builder: LogicBuilder, a: Sequence[Signal]) -> Word:
    """Unsigned square of a word (``2 * len(a)`` result bits)."""
    return multiply(builder, a, a)


def barrel_rotate_left(
    builder: LogicBuilder,
    data: Sequence[Signal],
    amount: Sequence[Signal],
) -> Word:
    """Logarithmic barrel rotator: rotate ``data`` left by ``amount``.

    One mux stage per shift-amount bit — the structure of the EPFL ``bar``
    benchmark.
    """
    word = list(data)
    n = len(word)
    for stage, bit in enumerate(amount):
        distance = (1 << stage) % n
        rotated = word[-distance:] + word[:-distance] if distance else list(word)
        word = mux_word(builder, bit, rotated, word)
    return word


def barrel_shift_left(
    builder: LogicBuilder,
    data: Sequence[Signal],
    amount: Sequence[Signal],
) -> Word:
    """Logarithmic logical left shifter (zero fill)."""
    word = list(data)
    zero = builder.const(0)
    for stage, bit in enumerate(amount):
        distance = 1 << stage
        if distance >= len(word):
            shifted: Word = [zero] * len(word)
        else:
            shifted = [zero] * distance + word[:-distance]
        word = mux_word(builder, bit, shifted, word)
    return word


def leading_one_index(
    builder: LogicBuilder, signals: Sequence[Signal]
) -> tuple[Word, Signal]:
    """Priority encoder: index of the highest set bit, plus a found flag.

    Scans from the MSB (highest index wins).  The index word has
    ``ceil(log2(len))`` bits; it is all zeros when no bit is set.
    """
    width = max(1, (len(signals) - 1).bit_length())
    index: Word = [builder.const(0)] * width
    found = builder.const(0)
    for k in reversed(range(len(signals))):
        is_first = builder.and_(signals[k], ~found)
        found = builder.or_(found, signals[k])
        for b in range(width):
            if (k >> b) & 1:
                index[b] = builder.or_(index[b], is_first)
    return index, found


def divide(
    builder: LogicBuilder,
    dividend: Sequence[Signal],
    divisor: Sequence[Signal],
) -> tuple[Word, Word]:
    """Restoring long division; returns ``(quotient, remainder)``.

    Division by zero yields quotient bits all 1 and remainder equal to the
    dividend, matching the usual restoring-array hardware behaviour.
    """
    n = len(dividend)
    if len(divisor) != n:
        raise MigError(f"word widths differ: {n} vs {len(divisor)}")
    remainder = constant_word(builder, 0, n)
    quotient: Word = [builder.const(0)] * n
    for i in reversed(range(n)):
        # Shift the next dividend bit into the partial remainder.
        remainder = [dividend[i]] + remainder[:-1]
        trial, no_borrow = sub(builder, remainder, divisor)
        quotient[i] = no_borrow
        remainder = mux_word(builder, no_borrow, trial, remainder)
    return quotient, remainder


def isqrt(builder: LogicBuilder, operand: Sequence[Signal]) -> Word:
    """Integer square root by the restoring digit-recurrence method.

    For a ``2k``-bit (or odd-width, internally padded) operand the result
    has ``ceil(len/2)`` bits, matching the EPFL ``sqrt`` benchmark signature
    (128-bit input, 64-bit root).
    """
    operand = list(operand)
    if len(operand) % 2:
        operand.append(builder.const(0))
    k = len(operand) // 2
    remainder: Word = constant_word(builder, 0, k + 2)
    root_le: Word = []  # little-endian; bits are produced MSB-first
    for i in reversed(range(k)):
        # Bring down the next two operand bits: rem = (rem << 2) | pair.
        remainder = [operand[2 * i], operand[2 * i + 1]] + remainder[:-2]
        # Trial subtrahend is (root << 2) | 01.
        trial = zero_extend(
            [builder.const(1), builder.const(0)] + root_le, len(remainder), builder
        )
        difference, no_borrow = sub(builder, remainder, trial)
        remainder = mux_word(builder, no_borrow, difference, remainder)
        root_le.insert(0, no_borrow)  # newest root bit is the current LSB
    return root_le


def popcount(builder: LogicBuilder, signals: Sequence[Signal]) -> Word:
    """Population count via a balanced adder tree.

    Every input bit starts as a one-bit word; words are summed pairwise
    until one remains, growing one bit per tree level — the classic
    reduction used by voter-style circuits.
    """
    words: list[Word] = [[s] for s in signals]
    if not words:
        return [builder.const(0)]
    while len(words) > 1:
        merged: list[Word] = []
        for i in range(0, len(words) - 1, 2):
            a, b = words[i], words[i + 1]
            width = max(len(a), len(b))
            a = zero_extend(a, width, builder)
            b = zero_extend(b, width, builder)
            total, carry = add(builder, a, b)
            merged.append(total + [carry])
        if len(words) % 2:
            merged.append(words[-1])
        words = merged
    return words[0]
