"""Tests for RRAM-budgeted compilation (the paper's future-work item).

``CompilerOptions(max_work_cells=k)`` caps the paper's #R metric: under
pressure the compiler evicts cached complements (recomputing them later if
needed) instead of allocating fresh cells.
"""

import pytest

from repro.circuits.registry import build
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.errors import CompilationError
from repro.mig.graph import Mig
from repro.plim.verify import verify_program

from compile_reference import ReferenceCompiler
from conftest import random_mig


def compile_with_budget(mig, budget):
    options = CompilerOptions(max_work_cells=budget, fix_output_polarity=False)
    return PlimCompiler(options).compile(mig)


def cache_heavy_mig():
    """Gates with no complements and no constants — maximal cache traffic."""
    mig = Mig()
    pis = [mig.add_pi(f"x{i}") for i in range(6)]
    layer = pis
    width = len(pis)
    for _ in range(3):
        layer = [
            mig.add_maj(layer[i], layer[(i + 1) % width], layer[(i + 2) % width])
            for i in range(width)
        ]
    for i, s in enumerate(layer):
        mig.add_po(s, f"f{i}")
    return mig


class TestBudgetedCompilation:
    def test_unlimited_matches_default(self):
        mig = cache_heavy_mig()
        free = PlimCompiler(CompilerOptions(fix_output_polarity=False)).compile(mig)
        capped = compile_with_budget(mig, free.num_rrams)
        assert capped.num_rrams <= free.num_rrams
        assert verify_program(mig, capped).ok

    def test_budget_respected_and_correct(self):
        mig = cache_heavy_mig()
        free = PlimCompiler(CompilerOptions(fix_output_polarity=False)).compile(mig)
        for budget in range(free.num_rrams, 0, -1):
            try:
                program = compile_with_budget(mig, budget)
            except CompilationError:
                # Once infeasible, every tighter budget must also fail.
                for tighter in range(budget, 0, -1):
                    with pytest.raises(CompilationError):
                        compile_with_budget(mig, tighter)
                break
            assert program.num_rrams <= budget
            assert verify_program(mig, program, raise_on_mismatch=True).ok

    def test_tight_budget_costs_instructions(self):
        """Evicted complements must be recomputed: fewer cells, more RM3s."""
        mig = cache_heavy_mig()
        free = PlimCompiler(CompilerOptions(fix_output_polarity=False)).compile(mig)
        # Find the tightest feasible budget.
        tightest = None
        for budget in range(free.num_rrams, 0, -1):
            try:
                tightest = compile_with_budget(mig, budget)
            except CompilationError:
                break
        assert tightest is not None
        assert tightest.num_rrams < free.num_rrams
        assert tightest.num_instructions >= free.num_instructions

    def test_infeasible_budget_raises(self):
        mig = cache_heavy_mig()
        with pytest.raises(CompilationError):
            compile_with_budget(mig, 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_migs_under_pressure(self, seed):
        mig = random_mig(seed + 200, num_pis=5, num_gates=30, num_pos=2)
        free = PlimCompiler(CompilerOptions(fix_output_polarity=False)).compile(mig)
        budget = max(2, free.num_rrams - 2)
        try:
            program = compile_with_budget(mig, budget)
        except CompilationError:
            return  # genuinely infeasible — acceptable
        assert program.num_rrams <= budget
        assert verify_program(mig, program, raise_on_mismatch=True).ok


def _outcome(compiler, mig, options):
    """The program text, or the error message, of one compile."""
    try:
        return compiler(options).compile(mig).to_text()
    except CompilationError as error:
        return f"error: {error}"


@pytest.mark.parametrize("policy", ["fifo", "lifo", "fresh"])
def test_budget_holds_under_every_allocator_policy(policy):
    """voter@ci needs 11 work cells under FIFO/LIFO but 39 under FRESH,
    which never reuses a cell: a budget of 20 fits the first two and
    stops FRESH with the budget error, identically in the reference."""
    mig = build("voter", "ci")
    options = CompilerOptions(allocator_policy=policy, max_work_cells=20)
    shipped = _outcome(PlimCompiler, mig, options)
    assert shipped == _outcome(ReferenceCompiler, mig, options)
    if policy == "fresh":
        assert shipped.startswith("error: work-cell budget of 20 exceeded")
    else:
        assert PlimCompiler(options).compile(mig).num_rrams <= 20
