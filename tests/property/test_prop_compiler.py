"""Property-based end-to-end compiler correctness.

The central invariant of the whole package: *any* MIG compiled under *any*
option combination executes on the PLiM machine model to exactly the MIG's
functions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.pipeline import compile_mig
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.simulate import truth_tables
from repro.plim.verify import verify_program

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
def test_compiled_program_computes_the_mig(mig, options):
    program = PlimCompiler(options).compile(mig)
    assert verify_program(mig, program, raise_on_mismatch=True).ok


@SLOWER
@given(mig=migs(max_gates=20), effort=st.integers(0, 3))
def test_rewriting_preserves_function_and_pipeline_verifies(mig, effort):
    rewritten = rewrite_for_plim(mig, RewriteOptions(effort=effort))
    assert truth_tables(rewritten) == truth_tables(mig)
    result = compile_mig(mig, effort=max(effort, 1))
    assert verify_program(mig, result.program, raise_on_mismatch=True).ok


@SLOWER
@given(mig=migs(max_gates=20))
def test_instruction_count_bounds(mig):
    """1 ≤ #I per gate ≤ 7 (paper: worst case six extra instructions)."""
    clean, _ = mig.cleanup()
    program = PlimCompiler(
        CompilerOptions(fix_output_polarity=False)
    ).compile(mig)
    gates = clean.num_gates
    if gates:
        assert gates <= program.num_instructions <= 7 * gates + 2 * clean.num_pos


@SLOWER
@given(mig=migs(max_gates=20))
def test_input_cells_are_read_only(mig):
    program = PlimCompiler(CompilerOptions()).compile(mig)
    inputs = set(program.input_cells.values())
    assert all(instr.z not in inputs for instr in program)


@SLOWER
@given(mig=migs(max_gates=20))
def test_work_cell_inventory_is_consistent(mig):
    """#R equals the distinct non-input destinations/operands used."""
    program = PlimCompiler(CompilerOptions()).compile(mig)
    inputs = set(program.input_cells.values())
    touched = set()
    for instr in program:
        touched.add(instr.z)
        for op in (instr.a, instr.b):
            if not op.is_const:
                touched.add(op.value)
    touched -= inputs
    assert touched == set(program.work_cells)
