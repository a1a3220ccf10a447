"""Bit-manipulation helpers used by simulation and the word-level builders.

Bit-parallel simulation represents a signal's value under many input
patterns as one arbitrary-precision integer: bit ``p`` of the integer is the
signal's value under pattern ``p``.  Python integers make this both simple
and fast — a single ``&``/``|`` simulates every pattern at once.

The two functional checkers (:func:`repro.plim.verify.verify_program` and
:func:`repro.mig.equivalence.equivalent`) share the random-round packing
here: :func:`random_rounds` lays the rounds side by side in one word and
:func:`first_mismatch` reads a failure back out as round by round.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.errors import VerificationError


def full_mask(width: int) -> int:
    """Return an integer with the ``width`` lowest bits set.

    >>> full_mask(4)
    15
    """
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def pattern_mask(var_index: int, num_vars: int) -> int:
    """Truth-table column of input variable ``var_index`` over ``num_vars``.

    Bit ``p`` of the result is bit ``var_index`` of the pattern number ``p``,
    for all ``2**num_vars`` patterns — the classic cofactor mask.

    >>> bin(pattern_mask(0, 3))
    '0b10101010'
    >>> bin(pattern_mask(2, 3))
    '0b11110000'
    """
    if not 0 <= var_index < num_vars:
        raise ValueError(f"var_index {var_index} out of range for {num_vars} variables")
    block = full_mask(1 << var_index) << (1 << var_index)
    repeats = 1 << (num_vars - var_index - 1)
    stride = 1 << (var_index + 1)
    value = 0
    for i in range(repeats):
        value |= block << (i * stride)
    return value


def check_sample_budget(rounds: int, width: int) -> None:
    """Reject a random-sampling budget that would check no pattern.

    Raises :class:`~repro.errors.VerificationError` naming the offending
    value when ``rounds`` or ``width`` (patterns per round) is not positive.
    """
    if rounds < 1:
        raise VerificationError(f"num_random_rounds must be positive, got {rounds}")
    if width < 1:
        raise VerificationError(f"patterns_per_round must be positive, got {width}")


def random_rounds(
    names: Sequence[str], rounds: int, width: int, seed: int
) -> dict[str, int]:
    """``rounds`` rounds of ``width`` random patterns, packed into one word per name.

    Patterns are drawn from ``random.Random(seed)`` round by round, one
    ``getrandbits(width)`` per (distinct) name in ``names`` order; round
    ``r`` fills bits ``[r * width, (r + 1) * width)``.  One wide pass over
    the packed words checks exactly the patterns of ``rounds`` separate
    passes.

    >>> rng = random.Random(7)
    >>> a0, b0, a1, b1 = (rng.getrandbits(8) for _ in range(4))
    >>> random_rounds(["a", "b"], 2, 8, seed=7) == {"a": a0 | a1 << 8, "b": b0 | b1 << 8}
    True
    """
    rng = random.Random(seed)
    packed = dict.fromkeys(names, 0)
    for r in range(rounds):
        for name in names:
            packed[name] |= rng.getrandbits(width) << (r * width)
    return packed


def first_mismatch(
    diffs: Sequence[int], width: int
) -> Optional[tuple[int, int, int]]:
    """Where a packed multi-round check first fails, or ``None``.

    ``diffs[i]`` is the XOR of output ``i``'s expected and actual words,
    with round ``r`` in bits ``[r * width, (r + 1) * width)``.  Returns
    ``(round, index, pattern)``: the first round with any difference, the
    first output that differs in it, and that output's lowest differing
    pattern (a bit index into the packed word) in that round — what
    checking the rounds one at a time would report.

    >>> first_mismatch([0b0000, 0b0100, 0b1100], 2)
    (1, 1, 2)
    >>> first_mismatch([0, 0], 2) is None
    True
    """
    any_diff = 0
    for diff in diffs:
        any_diff |= diff
    if not any_diff:
        return None
    round_ = ((any_diff & -any_diff).bit_length() - 1) // width
    window = full_mask(width) << (round_ * width)
    index = next(i for i, diff in enumerate(diffs) if diff & window)
    bad = diffs[index]  # no output differs below the window
    return round_, index, (bad & -bad).bit_length() - 1


def popcount(value: int) -> int:
    """Number of set bits of a non-negative integer."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative integers")
    return value.bit_count()


def bits_of(value: int, width: int) -> list[int]:
    """Little-endian list of the ``width`` lowest bits of ``value``.

    >>> bits_of(6, 4)
    [0, 1, 1, 0]
    """
    return [(value >> i) & 1 for i in range(width)]


def from_bits(bits: list[int]) -> int:
    """Inverse of :func:`bits_of`: assemble a little-endian bit list.

    >>> from_bits([0, 1, 1, 0])
    6
    """
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit {i} is {bit!r}, expected 0 or 1")
        value |= bit << i
    return value


def bit_length_of_mask(mask: int) -> int:
    """Number of patterns a simulation mask covers (its bit length rounded up).

    Used to recover the pattern count from a full mask.
    """
    return mask.bit_length()
