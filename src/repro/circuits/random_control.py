"""Surrogates for the non-reconstructible control benchmarks.

``cavlc``, ``i2c`` and ``mem_ctrl`` are slices of real IP (an H.264 coder,
an I²C master, a DDR controller); their netlists cannot be rebuilt from
public descriptions.  Per the substitution policy
(docs/architecture.md#reproduction-status-of-the-circuits) we
replace them with *seeded pseudo-random PLA logic*: every output is a sum of
products over randomly chosen literals.  This preserves exactly what the
compiler experiments consume — irregular cube-based control logic with the
paper's I/O signature and a calibrated node count — while being fully
deterministic (fixed seed per benchmark).
"""

from __future__ import annotations

import random

from repro.mig.build import LogicBuilder
from repro.mig.graph import Mig
from repro.mig.signal import Signal


def make_pla_surrogate(
    name: str,
    num_inputs: int,
    num_outputs: int,
    cubes_per_output: int,
    literals_low: int,
    literals_high: int,
    seed: int,
    style: str = "aoig",
) -> Mig:
    """Random sum-of-products logic with a fixed seed.

    Every output ORs ``cubes_per_output`` cubes; each cube ANDs between
    ``literals_low`` and ``literals_high`` literals over distinct inputs
    with random polarities.  Outputs share cubes occasionally through
    structural hashing, like real control logic does.
    """
    if literals_low < 1 or literals_high < literals_low:
        raise ValueError("invalid literal range")
    if cubes_per_output < 1:
        raise ValueError("need at least one cube per output")
    rng = random.Random(seed)
    builder = LogicBuilder(style=style, name=name)
    inputs = builder.inputs(num_inputs, "x")
    for out_index in range(num_outputs):
        cubes: list[Signal] = []
        for _ in range(cubes_per_output):
            k = rng.randint(literals_low, min(literals_high, num_inputs))
            chosen = rng.sample(range(num_inputs), k)
            literals = [
                inputs[i] if rng.random() < 0.5 else ~inputs[i] for i in chosen
            ]
            cubes.append(builder.and_reduce(literals))
        builder.output(builder.or_reduce(cubes), f"y{out_index}")
    return builder.mig


def make_cavlc(
    num_inputs: int = 10,
    num_outputs: int = 11,
    cubes_per_output: int = 8,
    style: str = "aoig",
) -> Mig:
    """Surrogate for EPFL ``cavlc`` (10 → 11, ≈700 gates)."""
    return make_pla_surrogate(
        "cavlc", num_inputs, num_outputs, cubes_per_output,
        literals_low=7, literals_high=9, seed=0xCA71C, style=style,
    )


def make_i2c(
    num_inputs: int = 147,
    num_outputs: int = 142,
    cubes_per_output: int = 3,
    style: str = "aoig",
) -> Mig:
    """Surrogate for EPFL ``i2c`` (147 → 142, ≈1.3k gates)."""
    return make_pla_surrogate(
        "i2c", num_inputs, num_outputs, cubes_per_output,
        literals_low=3, literals_high=4, seed=0x12C, style=style,
    )


def make_mem_ctrl(
    num_inputs: int = 1204,
    num_outputs: int = 1231,
    cubes_per_output: int = 6,
    style: str = "aoig",
) -> Mig:
    """Surrogate for EPFL ``mem_ctrl`` (1204 → 1231, ≈47k gates)."""
    return make_pla_surrogate(
        "mem_ctrl", num_inputs, num_outputs, cubes_per_output,
        literals_low=6, literals_high=8, seed=0x3E3C, style=style,
    )
