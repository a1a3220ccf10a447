"""Transcendental EPFL benchmarks: sin and log2 (same-family rebuilds).

The EPFL netlists for ``sin`` and ``log2`` are bit-optimized black boxes;
we rebuild the *functions* with the standard hardware algorithms —

* ``sin``: CORDIC in circular rotation mode (shift-and-add iterations with
  a sign-steered conditional adder per state variable), first quadrant;
* ``log2``: leading-one normalization plus the classic squaring recurrence
  for the fractional bits (``m ← m²; bit = (m ≥ 2)``).

These produce the same structural mix the originals have — wide adders,
muxes, and priority logic — at parameterized precision, which is what the
compiler experiments exercise.  Bit-exactness to the EPFL netlists is
neither possible nor needed
(docs/architecture.md#reproduction-status-of-the-circuits);
each generator's function is tested against Python's ``math`` with
precision-derived tolerances.
"""

from __future__ import annotations

import math

from repro.mig.build import LogicBuilder
from repro.mig.graph import Mig
from repro.mig.signal import Signal
from repro.mig.words import (
    Word,
    add,
    barrel_shift_left,
    constant_word,
    leading_one_index,
    multiply,
    mux_word,
    sub,
)

#: CORDIC gain limit K = prod 1/sqrt(1 + 2^-2i)
CORDIC_GAIN = 0.6072529350088812


def _conditional_add_sub(
    builder: LogicBuilder, a: Word, b: Word, subtract: Signal
) -> Word:
    """``a - b`` when ``subtract`` else ``a + b`` via the XOR trick.

    ``a + (b ⊕ subtract) + subtract`` — one adder plus an XOR plane instead
    of two adders and a mux.
    """
    flipped = [builder.xor(bit, subtract) for bit in b]
    total, _ = add(builder, a, flipped, carry_in=subtract)
    return total


def _arith_shift_right(word: Word, amount: int) -> Word:
    """Arithmetic right shift by a constant — pure wiring."""
    if amount <= 0:
        return list(word)
    sign = word[-1]
    return list(word[amount:]) + [sign] * min(amount, len(word))


def make_sin(bits: int = 24, iterations: int | None = None, style: str = "aoig") -> Mig:
    """First-quadrant CORDIC sine (EPFL ``sin``: 24 in / 25 out).

    Input: unsigned ``bits``-wide angle θ meaning ``θ / 2**bits`` quarter
    turns (i.e. radians scaled by π/2).  Output: ``bits + 1`` signed bits of
    ``sin`` in Q1.(bits-1) (the extra bit absorbs rounding overshoot).
    """
    if iterations is None:
        iterations = max(4, bits * 5 // 12)  # sized near the EPFL node count
    width = bits + 2  # two guard bits, two's complement internally
    builder = LogicBuilder(style=style, name=f"sin{bits}")
    theta = builder.inputs(bits, "a")

    def const_w(value: int) -> Word:
        return constant_word(builder, value & ((1 << width) - 1), width)

    # Angle register z in units of (π/2) / 2**bits.
    z: Word = list(theta) + [builder.const(0)] * (width - bits)
    x: Word = const_w(round(CORDIC_GAIN * (1 << (bits - 1))))
    y: Word = const_w(0)
    for i in range(iterations):
        alpha = round(math.atan(2.0 ** -i) / (math.pi / 2) * (1 << bits))
        positive = ~z[-1]  # z >= 0 → rotate by +alpha
        x_shift = _arith_shift_right(y, i)
        y_shift = _arith_shift_right(x, i)
        x = _conditional_add_sub(builder, x, x_shift, positive)
        y = _conditional_add_sub(builder, y, y_shift, ~positive)
        z = _conditional_add_sub(builder, z, const_w(alpha), positive)
    builder.outputs(y[: bits + 1], "s")
    return builder.mig


def make_log2(
    bits: int = 32,
    frac_bits: int | None = None,
    mantissa_bits: int | None = None,
    style: str = "aoig",
) -> Mig:
    """Fixed-point ``log2`` (EPFL ``log2``: 32 in / 32 out).

    Output (little-endian POs): ``frac_bits`` fraction bits of
    ``log2(x)`` followed by the integer part (the leading-one index).  The
    default ``frac_bits`` pads the output to exactly ``bits`` POs like the
    EPFL original.  The fraction uses the squaring recurrence on a
    ``mantissa_bits``-wide normalized mantissa; precision (and size) scale
    with ``mantissa_bits``.  For x = 0 the output is all zeros.
    """
    exp_bits = max(1, (bits - 1).bit_length())
    if frac_bits is None:
        frac_bits = bits - exp_bits
    if mantissa_bits is None:
        mantissa_bits = min(bits, 12)
    builder = LogicBuilder(style=style, name=f"log2_{bits}")
    x = builder.inputs(bits, "x")

    msb_index, found = leading_one_index(builder, x)
    # Normalize so the leading one lands at the top: shift left by
    # (bits - 1 - msb_index), which is the bitwise complement of the index
    # when bits is a power of two.
    if bits & (bits - 1) == 0:
        shift_amount: Word = [~b for b in msb_index]
    else:
        limit = constant_word(builder, bits - 1, exp_bits)
        shift_amount, _ = sub(builder, limit, msb_index)
    normalized = barrel_shift_left(builder, x, shift_amount)
    # Mantissa m in Q1.(mb-1): top mantissa_bits of the normalized word.
    take = min(mantissa_bits, bits)
    mantissa: Word = list(normalized[bits - take :])
    if take < mantissa_bits:
        mantissa = [builder.const(0)] * (mantissa_bits - take) + mantissa

    fraction: list[Signal] = []
    m = mantissa
    mb = mantissa_bits
    for _ in range(frac_bits):
        squared = multiply(builder, m, m)  # 2*mb bits, Q2.(2mb-2)
        bit = squared[2 * mb - 1]  # m² >= 2
        fraction.append(bit)
        renorm_hi = squared[mb : 2 * mb]  # m²/2 in Q1.(mb-1)
        renorm_lo = squared[mb - 1 : 2 * mb - 1]  # m² in Q1.(mb-1)
        m = mux_word(builder, bit, renorm_hi, renorm_lo)

    # Gate everything with `found` so log2(0) reads 0.
    for i, bit in enumerate(reversed(fraction)):
        builder.output(builder.and_(bit, found), f"f{i}")
    for i, bit in enumerate(msb_index):
        builder.output(builder.and_(bit, found), f"e{i}")
    return builder.mig
