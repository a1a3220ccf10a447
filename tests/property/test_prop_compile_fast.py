"""Property sweep of the array-fast Algorithm 2 and the machine kernels.

Two families of invariants:

* **compile identity** — for arbitrary graphs and option sets, the shipped
  compiler's ``.plim`` text equals the object reference's
  (``tests/compile_reference.py``) byte for byte;
* **execution identity** — for one program, the object interpreter, the
  compiled plan kernel, and (when numpy is available) the chunked uint64
  kernel produce the same cells, outputs, and endurance counters
  (``write_counts``, ``flip_counts``, instruction/cycle counts) at a
  1,024-pattern width, the default random verification pass.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.plim import machine as machine_mod
from repro.plim.machine import PlimMachine
from repro.plim.verify import verify_program

from compile_reference import ReferenceCompiler

from .strategies import migs

SLOWER = settings(max_examples=30, deadline=None)

option_sets = st.builds(
    CompilerOptions,
    scheduling=st.sampled_from(["priority", "index"]),
    operand_selection=st.sampled_from(["cases", "child_order"]),
    complement_caching=st.booleans(),
    allocator_policy=st.sampled_from(["fifo", "lifo", "fresh"]),
    fix_output_polarity=st.booleans(),
    reorder=st.sampled_from(["none", "best"]),
    unblocking_rule=st.booleans(),
    level_rule=st.booleans(),
)


@SLOWER
@given(mig=migs(max_gates=20), options=option_sets)
def test_fast_equals_oracle_byte_for_byte(mig, options):
    fast = PlimCompiler(options).compile(mig)
    oracle = ReferenceCompiler(options).compile(mig)
    assert fast.to_text() == oracle.to_text()


@SLOWER
@given(mig=migs(max_gates=15), seed=st.integers(0, 2**16))
def test_kernels_agree_exactly(mig, seed):
    """Object loop vs compiled plan vs numpy kernel: same machine state."""
    import random

    program = PlimCompiler().compile(mig)
    # the width of the default 4 x 256 random verification pass; the numpy
    # kernel is forced explicitly
    width = 1024
    rng = random.Random(seed)
    mask = (1 << width) - 1
    inputs = {name: rng.randrange(0, 1 << width) & mask for name in program.input_cells}

    kernels = ["object", "plan"]
    if machine_mod._np is not None:
        kernels.append("numpy")
    runs = {}
    for kernel in kernels:
        machine = PlimMachine.for_program(program, width=width, kernel=kernel)
        outputs = machine.run_program(program, inputs)
        runs[kernel] = (
            outputs,
            list(machine.cells),
            list(machine.write_counts),
            list(machine.flip_counts),
            machine.instruction_count,
            machine.cycle_count,
        )
    reference = runs["object"]
    for kernel in kernels[1:]:
        assert runs[kernel] == reference, kernel


@SLOWER
@given(mig=migs(max_gates=12, max_pis=4))
def test_exhaustive_verify_at_numpy_widths(mig):
    """verify_program's exhaustive mode agrees with the MIG on every input
    pattern.  At ``max_pis=4`` the packed width is at most 16 patterns, on
    the default kernel; ``test_kernels_agree_exactly`` covers the numpy
    kernel at 1,024 patterns."""
    program = PlimCompiler().compile(mig)
    check = verify_program(mig, program, raise_on_mismatch=True)
    assert check.ok


@pytest.mark.skipif(machine_mod._np is None, reason="numpy not available")
@SLOWER
@given(mig=migs(max_gates=15), seed=st.integers(0, 2**16))
def test_auto_kernel_dispatch_matches_forced_kernels(mig, seed):
    """kernel="auto" output equals both forced kernels at any width."""
    import random

    program = PlimCompiler().compile(mig)
    rng = random.Random(seed)
    for width in (1, 1024):
        mask = (1 << width) - 1
        inputs = {
            name: rng.randrange(0, 1 << width) & mask
            for name in program.input_cells
        }
        auto = PlimMachine.for_program(program, width=width, kernel="auto")
        plan = PlimMachine.for_program(program, width=width, kernel="plan")
        assert auto.run_program(program, inputs) == plan.run_program(program, inputs)
        assert auto.cells == plan.cells
        assert auto.write_counts == plan.write_counts
        assert auto.flip_counts == plan.flip_counts


@SLOWER
@given(mig=migs(max_gates=15), seed=st.integers(0, 2**16))
def test_auto_kernel_is_plan(mig, seed):
    """kernel="auto" runs the plan kernel at every width, the numpy kernel
    never: wide words cost the big-int loop less than five ufuncs per RM3."""
    import random
    from unittest import mock

    program = PlimCompiler().compile(mig)
    rng = random.Random(seed)
    for width in (1, 1024, 4096):
        inputs = {name: rng.getrandbits(width) for name in program.input_cells}
        machine = PlimMachine.for_program(program, width=width)
        assert machine.kernel == "auto"
        with mock.patch.object(
            PlimMachine, "_run_numpy", side_effect=AssertionError("numpy ran")
        ), mock.patch.object(
            PlimMachine, "_run_plan", autospec=True, side_effect=PlimMachine._run_plan
        ) as run_plan:
            machine.run_program(program, inputs)
        assert run_plan.call_count == 1
