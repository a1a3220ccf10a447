"""Unit and integration tests for repro.core.compiler (Algorithm 2)."""

import pytest

from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.errors import CompilationError
from repro.mig.graph import Mig
from repro.mig.reorder import reorder_dfs, shuffle_topological
from repro.mig.signal import Signal
from repro.plim.verify import verify_program

from conftest import random_mig


class TestOptions:
    def test_defaults(self):
        opts = CompilerOptions()
        assert opts.scheduling == "priority"
        assert opts.operand_selection == "cases"
        assert opts.complement_caching
        assert opts.fix_output_polarity

    def test_naive_preset(self):
        opts = CompilerOptions.naive()
        assert opts.scheduling == "index"
        assert opts.operand_selection == "child_order"
        assert not opts.complement_caching
        assert opts.reorder == "none"

    def test_no_selection_preset(self):
        opts = CompilerOptions.no_selection()
        assert opts.scheduling == "index"
        assert opts.operand_selection == "cases"

    def test_paper_selection_preset(self):
        assert CompilerOptions.paper_selection().level_rule

    def test_overrides(self):
        opts = CompilerOptions.naive(allocator_policy="fresh")
        assert opts.allocator_policy == "fresh"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheduling": "bogus"},
            {"operand_selection": "bogus"},
            {"allocator_policy": "bogus"},
            {"reorder": "bogus"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(CompilationError):
            CompilerOptions(**kwargs)

    @pytest.mark.parametrize("budget", [True, False, 2.5, 0, -3, "4", 1.0])
    def test_max_work_cells_must_be_a_positive_int(self, budget):
        with pytest.raises(CompilationError, match="max_work_cells"):
            CompilerOptions(max_work_cells=budget)

    @pytest.mark.parametrize("budget", [None, 1, 64])
    def test_max_work_cells_accepts_none_and_positive_ints(self, budget):
        assert CompilerOptions(max_work_cells=budget).max_work_cells == budget


def duplicate_output_mig() -> Mig:
    """Two outputs named ``f``: ``a ∧ b`` and its complement."""
    mig = Mig()
    a, b = mig.add_pi("a"), mig.add_pi("b")
    g = mig.add_maj(a, b, Signal.CONST0)
    mig.add_po(g, "f")
    mig.add_po(~g, "f")
    return mig


class TestOutputNames:
    def test_duplicate_output_name_raises_before_translating(self, monkeypatch):
        def no_translation(self, ctx, bound=None):
            raise AssertionError("translated despite a duplicate output name")

        monkeypatch.setattr(PlimCompiler, "_compile_ordered", no_translation)
        with pytest.raises(CompilationError, match="duplicate output name 'f'"):
            PlimCompiler().compile(duplicate_output_mig())

    @pytest.mark.parametrize("options", [CompilerOptions(), CompilerOptions.naive()])
    def test_every_option_set_refuses_duplicates(self, options):
        with pytest.raises(CompilationError, match="duplicate output name"):
            PlimCompiler(options).compile(duplicate_output_mig())


ALL_CONFIGS = [
    CompilerOptions(),
    CompilerOptions.naive(),
    CompilerOptions.no_selection(),
    CompilerOptions.paper_selection(),
    CompilerOptions(unblocking_rule=True),
    CompilerOptions(allocator_policy="lifo"),
    CompilerOptions(allocator_policy="fresh"),
    CompilerOptions(fix_output_polarity=False),
    CompilerOptions(complement_caching=False),
    CompilerOptions(reorder="none"),
]


@pytest.mark.parametrize("config_index", range(len(ALL_CONFIGS)))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_configuration_compiles_correctly(config_index, seed):
    """The gold invariant: any option combination yields a correct program."""
    mig = random_mig(seed, num_pis=5, num_gates=30, num_pos=3)
    program = PlimCompiler(ALL_CONFIGS[config_index]).compile(mig)
    assert verify_program(mig, program, raise_on_mismatch=True).ok


class TestStructuralProperties:
    def test_every_gate_translated(self):
        mig = random_mig(10, num_pis=5, num_gates=25)
        program = PlimCompiler(CompilerOptions(fix_output_polarity=False)).compile(mig)
        clean, _ = mig.cleanup()
        # Copies repeat a gate's label; distinct labels == live gates.
        labels = {
            i.comment.split("<- ")[-1]
            for i in program
            if "<- n" in i.comment
        }
        assert len(labels) == clean.num_gates

    def test_instructions_lower_bound(self):
        mig = random_mig(11, num_pis=5, num_gates=25)
        program = PlimCompiler(CompilerOptions()).compile(mig)
        assert program.num_instructions >= mig.cleanup()[0].num_gates

    def test_dead_gates_skipped_when_clean(self):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        live = mig.add_maj(a, b, c)
        mig.add_maj(a, b, ~c)  # dead
        mig.add_po(live, "f")
        program = PlimCompiler(CompilerOptions()).compile(mig)
        labels = {
            i.comment.split("<- ")[-1] for i in program if "<- n" in i.comment
        }
        assert len(labels) == 1  # only the live gate was translated

    def test_input_cells_never_written(self):
        mig = random_mig(12, num_pis=6, num_gates=40)
        program = PlimCompiler(CompilerOptions()).compile(mig)
        input_cells = set(program.input_cells.values())
        for instr in program:
            assert instr.z not in input_cells

    def test_output_contract_complete(self):
        mig = random_mig(13, num_pis=4, num_gates=20, num_pos=4)
        program = PlimCompiler(CompilerOptions()).compile(mig)
        assert set(program.output_cells) == set(mig.po_names())

    def test_honest_mode_outputs_never_inverted(self):
        mig = random_mig(14, num_pis=4, num_gates=20, num_pos=4)
        program = PlimCompiler(CompilerOptions(fix_output_polarity=True)).compile(mig)
        assert not any(loc.inverted for loc in program.output_cells.values())

    def test_paper_mode_can_leave_inverted(self):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        mig.add_po(~mig.add_maj(a, b, c), "f")
        program = PlimCompiler(CompilerOptions(fix_output_polarity=False)).compile(mig)
        assert program.output_cells["f"].inverted

    def test_pi_as_output(self):
        mig = Mig()
        a = mig.add_pi("a")
        mig.add_po(a, "f")
        program = PlimCompiler(CompilerOptions()).compile(mig)
        assert program.output_cells["f"].cell == program.input_cells["a"]
        assert verify_program(mig, program).ok

    def test_inverted_pi_as_output_honest(self):
        mig = Mig()
        a = mig.add_pi("a")
        mig.add_po(~a, "f")
        program = PlimCompiler(CompilerOptions(fix_output_polarity=True)).compile(mig)
        assert not program.output_cells["f"].inverted
        assert program.num_instructions == 2
        assert verify_program(mig, program).ok

    def test_const_output(self):
        mig = Mig()
        mig.add_pi("a")
        mig.add_po(Signal.CONST1, "one")
        mig.add_po(Signal.CONST0, "zero")
        program = PlimCompiler(CompilerOptions()).compile(mig)
        assert verify_program(mig, program).ok

    def test_shared_output_node(self):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        g = mig.add_maj(a, b, c)
        mig.add_po(g, "f")
        mig.add_po(g, "g")
        mig.add_po(~g, "h")
        program = PlimCompiler(CompilerOptions()).compile(mig)
        assert verify_program(mig, program).ok
        assert program.output_cells["f"].cell == program.output_cells["g"].cell


class TestDeterminism:
    def test_same_input_same_program(self):
        mig = random_mig(15, num_pis=5, num_gates=30)
        p1 = PlimCompiler(CompilerOptions()).compile(mig)
        p2 = PlimCompiler(CompilerOptions()).compile(mig)
        assert [str(i) for i in p1] == [str(i) for i in p2]

    def test_dfs_reorder_makes_result_order_independent(self):
        mig = random_mig(16, num_pis=6, num_gates=50)
        shuffled = shuffle_topological(mig, seed=3)
        opts = CompilerOptions(reorder="none")
        p1 = PlimCompiler(opts).compile(reorder_dfs(mig.cleanup()[0]))
        p2 = PlimCompiler(opts).compile(reorder_dfs(shuffled.cleanup()[0]))
        assert p1.num_instructions == p2.num_instructions
        assert p1.num_rrams == p2.num_rrams

    def test_best_reorder_never_loses_to_either_order(self):
        mig = random_mig(17, num_pis=6, num_gates=50)
        as_given = PlimCompiler(CompilerOptions(reorder="none"))
        programs = {
            "none": as_given.compile(mig),
            "dfs": as_given.compile(reorder_dfs(mig.cleanup()[0])),
            "best": PlimCompiler(CompilerOptions(reorder="best")).compile(mig),
        }
        results = {
            mode: (program.num_rrams, program.num_instructions)
            for mode, program in programs.items()
        }
        assert results["best"] == min(results.values())


class TestBaselineComparison:
    @pytest.mark.parametrize("seed", range(4))
    def test_smart_never_worse_on_instructions(self, seed):
        mig = random_mig(seed + 40, num_pis=6, num_gates=50)
        naive = PlimCompiler(CompilerOptions.naive(fix_output_polarity=False)).compile(mig)
        smart = PlimCompiler(CompilerOptions(fix_output_polarity=False)).compile(mig)
        assert smart.num_instructions <= naive.num_instructions
