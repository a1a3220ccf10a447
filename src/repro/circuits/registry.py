"""Benchmark registry: name + scale → MIG.

Three scales are provided because pure-Python compilation of the full-size
suite takes minutes, not milliseconds:

* ``paper`` — the exact I/O signatures of Table 1 (e.g. ``adder`` 256/129);
* ``default`` — reduced widths that keep the whole suite in the seconds
  range while preserving every structural feature;
* ``ci`` — tiny instances for the test suite (exhaustively verifiable
  where possible).

``build(name, scale)`` returns a fresh MIG; ``benchmark_info(name)`` the
static metadata including the paper's Table 1 row for comparison reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.circuits import arithmetic, control, cordic, divider, random_control
from repro.errors import BenchmarkError
from repro.mig.graph import Mig

SCALES = ("ci", "default", "paper")


@dataclass(frozen=True)
class PaperRow:
    """One row of the paper's Table 1 (the figures a generator is compared
    with; see docs/architecture.md#reproduction-status-of-the-circuits)."""

    pi: int
    po: int
    naive_n: int
    naive_i: int
    naive_r: int
    rewr_n: int
    rewr_i: int
    rewr_r: int
    full_i: int
    full_r: int


@dataclass(frozen=True)
class Benchmark:
    """A named benchmark with its generator and per-scale parameters."""

    name: str
    builder: Callable[..., Mig]
    params: dict[str, dict]
    status: str  # "exact", "family", or "surrogate"
    paper: PaperRow

    def build(self, scale: str = "default", **overrides) -> Mig:
        if scale not in self.params:
            raise BenchmarkError(
                f"benchmark {self.name!r} has no scale {scale!r}; "
                f"available: {sorted(self.params)}"
            )
        kwargs = dict(self.params[scale])
        kwargs.update(overrides)
        return self.builder(**kwargs)


def _paper(pi, po, nn, ni, nr, rn, ri, rr, fi, fr) -> PaperRow:
    return PaperRow(pi, po, nn, ni, nr, rn, ri, rr, fi, fr)


REGISTRY: dict[str, Benchmark] = {}


def _register(name, builder, status, paper, ci, default, paper_scale):
    REGISTRY[name] = Benchmark(
        name=name,
        builder=builder,
        params={"ci": ci, "default": default, "paper": paper_scale},
        status=status,
        paper=paper,
    )


# Table 1 of the paper: PI, PO, then naive (#N,#I,#R), rewriting (#N,#I,#R),
# rewriting+compilation (#I,#R).
_register(
    "adder", arithmetic.make_adder, "exact",
    _paper(256, 129, 1020, 2844, 512, 1020, 2037, 386, 1911, 259),
    ci={"bits": 4}, default={"bits": 32}, paper_scale={"bits": 128},
)
_register(
    "bar", arithmetic.make_bar, "exact",
    _paper(135, 128, 3336, 8136, 523, 3240, 5895, 371, 6011, 332),
    ci={"bits": 8}, default={"bits": 32}, paper_scale={"bits": 128},
)
_register(
    "div", divider.make_div, "exact",
    _paper(128, 128, 57247, 146617, 687, 50841, 147026, 771, 147608, 590),
    ci={"bits": 4}, default={"bits": 12}, paper_scale={"bits": 64},
)
_register(
    "log2", cordic.make_log2, "family",
    _paper(32, 32, 32060, 78885, 1597, 31419, 60402, 1487, 60184, 1256),
    ci={"bits": 4, "frac_bits": 3, "mantissa_bits": 4},
    default={"bits": 16, "frac_bits": 8, "mantissa_bits": 6},
    paper_scale={"bits": 32, "frac_bits": 27, "mantissa_bits": 12},
)
_register(
    "max", arithmetic.make_max, "exact",
    _paper(512, 130, 2865, 6731, 1021, 2845, 5092, 867, 4996, 579),
    ci={"bits": 4}, default={"bits": 32}, paper_scale={"bits": 128},
)
_register(
    "multiplier", arithmetic.make_multiplier, "exact",
    _paper(128, 128, 27062, 76156, 2798, 26951, 56428, 1672, 56009, 419),
    ci={"bits": 4}, default={"bits": 12}, paper_scale={"bits": 64},
)
_register(
    "sin", cordic.make_sin, "family",
    _paper(24, 25, 5416, 12479, 438, 5344, 10300, 426, 10223, 402),
    ci={"bits": 6, "iterations": 4},
    default={"bits": 12, "iterations": 6},
    paper_scale={"bits": 24, "iterations": 10},
)
_register(
    "sqrt", divider.make_sqrt, "exact",
    _paper(128, 64, 24618, 60691, 375, 22351, 47454, 433, 49782, 323),
    ci={"bits": 8}, default={"bits": 24}, paper_scale={"bits": 128},
)
_register(
    "square", arithmetic.make_square, "exact",
    _paper(64, 128, 18484, 54704, 3272, 18085, 33625, 3247, 33369, 452),
    ci={"bits": 4}, default={"bits": 16}, paper_scale={"bits": 64},
)
_register(
    "cavlc", random_control.make_cavlc, "surrogate",
    _paper(10, 11, 693, 1919, 262, 691, 1146, 236, 1124, 102),
    ci={"num_inputs": 8, "num_outputs": 6, "cubes_per_output": 3},
    default={}, paper_scale={},
)
_register(
    "ctrl", control.make_ctrl, "family",
    _paper(7, 26, 174, 499, 66, 156, 258, 55, 263, 39),
    ci={}, default={}, paper_scale={},
)
_register(
    "dec", control.make_dec, "exact",
    _paper(8, 256, 304, 822, 257, 304, 783, 257, 777, 258),
    ci={"bits": 4}, default={"bits": 6}, paper_scale={"bits": 8},
)
_register(
    "i2c", random_control.make_i2c, "surrogate",
    _paper(147, 142, 1342, 3314, 545, 1311, 2119, 487, 2028, 234),
    ci={"num_inputs": 12, "num_outputs": 10},
    default={}, paper_scale={},
)
_register(
    "int2float", control.make_int2float, "exact",
    _paper(11, 7, 260, 648, 99, 257, 432, 83, 428, 41),
    ci={"bits": 6}, default={}, paper_scale={},
)
_register(
    "mem_ctrl", random_control.make_mem_ctrl, "surrogate",
    _paper(1204, 1231, 46836, 113244, 8127, 46519, 85785, 6708, 84963, 2223),
    ci={"num_inputs": 16, "num_outputs": 12, "cubes_per_output": 3},
    default={"num_inputs": 300, "num_outputs": 308, "cubes_per_output": 4},
    paper_scale={},
)
_register(
    "priority", control.make_priority, "exact",
    _paper(128, 8, 978, 2461, 315, 977, 2126, 241, 2147, 149),
    ci={"bits": 8}, default={"bits": 64}, paper_scale={"bits": 128},
)
_register(
    "router", control.make_router, "family",
    _paper(60, 30, 257, 503, 117, 257, 407, 112, 401, 64),
    ci={}, default={}, paper_scale={},
)
_register(
    "voter", control.make_voter, "exact",
    _paper(1001, 1, 13758, 38002, 1749, 12992, 25009, 1544, 24990, 1063),
    ci={"inputs": 15}, default={"inputs": 101}, paper_scale={"inputs": 1001},
)

#: Table 1 order.
BENCHMARK_NAMES = list(REGISTRY)


def build(name: str, scale: str = "default", **overrides) -> Mig:
    """Construct benchmark ``name`` at ``scale`` (see module docstring)."""
    return benchmark_info(name).build(scale, **overrides)


def benchmark_info(name: str) -> Benchmark:
    """Registry entry for ``name``; raises :class:`BenchmarkError` if unknown."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown benchmark {name!r}; available: {BENCHMARK_NAMES}"
        ) from None
