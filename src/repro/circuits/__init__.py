"""Generators for the EPFL combinational benchmark suite.

The paper evaluates on the 18 EPFL benchmarks.  Their Verilog sources are
not redistributable and the environment is offline, so every circuit is
regenerated from first principles as a parameterized generator (see
docs/architecture.md#reproduction-status-of-the-circuits for the
exact-function / same-family / surrogate status of each).  All generators
build AOIG-style MIGs — AND/OR nodes with constant children and free
inverters — matching the paper's "initial non-optimized MIGs" obtained by
transposing AOIGs.

Use :func:`repro.circuits.registry.build` to construct a benchmark by name
at a given scale (``ci``, ``default``, or ``paper``).
"""

from repro.circuits.registry import BENCHMARK_NAMES, SCALES, benchmark_info, build

__all__ = ["BENCHMARK_NAMES", "SCALES", "benchmark_info", "build"]
