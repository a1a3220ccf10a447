"""Tests for the benchmark registry and the evaluation harness."""

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, SCALES, benchmark_info, build
from repro.errors import BenchmarkError
from repro.eval import ablations
from repro.eval.reporting import format_table, improvement, to_csv
from repro.eval.table1 import (
    PAPER_TOTAL_IMPROVEMENTS,
    Table1Result,
    Table1Row,
    format_table1,
    measure_mig,
    paper_rows_table,
    run_benchmark,
    run_table1,
    table1_csv,
)


class TestRegistry:
    def test_all_18_benchmarks_present(self):
        assert len(BENCHMARK_NAMES) == 18
        assert set(BENCHMARK_NAMES) >= {
            "adder", "bar", "div", "log2", "max", "multiplier", "sin", "sqrt",
            "square", "cavlc", "ctrl", "dec", "i2c", "int2float", "mem_ctrl",
            "priority", "router", "voter",
        }

    def test_scales(self):
        assert SCALES == ("ci", "default", "paper")

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_ci_scale_builds(self, name):
        mig = build(name, "ci")
        assert mig.num_gates > 0
        assert mig.num_pis > 0
        assert mig.num_pos > 0

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_paper_scale_signature_matches_table1(self, name):
        info = benchmark_info(name)
        mig = build(name, "paper")
        assert mig.num_pis == info.paper.pi
        assert mig.num_pos == info.paper.po

    def test_unknown_name_rejected(self):
        with pytest.raises(BenchmarkError):
            build("nonsense")

    def test_unknown_scale_rejected(self):
        with pytest.raises(BenchmarkError):
            build("adder", "huge")

    def test_overrides(self):
        mig = build("adder", "ci", bits=6)
        assert mig.num_pis == 12

    def test_paper_rows_consistent(self):
        """Sanity: the transcribed Table 1 sums to the paper's Σ row."""
        total_i = sum(benchmark_info(n).paper.naive_i for n in BENCHMARK_NAMES)
        total_r = sum(benchmark_info(n).paper.naive_r for n in BENCHMARK_NAMES)
        assert total_i == 608655
        assert total_r == 22760
        total_fi = sum(benchmark_info(n).paper.full_i for n in BENCHMARK_NAMES)
        total_fr = sum(benchmark_info(n).paper.full_r for n in BENCHMARK_NAMES)
        assert total_fi == 487214
        assert total_fr == 8785

    def test_statuses(self):
        assert benchmark_info("adder").status == "exact"
        assert benchmark_info("sin").status == "family"
        assert benchmark_info("mem_ctrl").status == "surrogate"


class TestReporting:
    def test_improvement(self):
        assert improvement(100, 80) == pytest.approx(20.0)
        assert improvement(100, 120) == pytest.approx(-20.0)
        assert improvement(0, 5) == 0.0

    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert lines[2].startswith("a ")
        assert lines[3].endswith("22")

    def test_to_csv(self):
        csv_text = to_csv(["x", "y"], [[1, 2]])
        assert csv_text.splitlines() == ["x,y", "1,2"]


class TestTable1Harness:
    def test_run_benchmark_row(self):
        row = run_benchmark("adder", "ci")
        assert row.name == "adder"
        assert row.naive_i > row.full_i
        assert row.naive_n >= row.rewr_n
        assert row.seconds > 0

    def test_improvement_properties(self):
        row = Table1Row(
            name="t", pi=1, po=1,
            naive_n=10, naive_i=100, naive_r=50,
            rewr_n=9, rewr_i=80, rewr_r=40,
            full_i=75, full_r=20,
        )
        assert row.rewr_i_impr == pytest.approx(20.0)
        assert row.full_r_impr == pytest.approx(60.0)

    def test_run_table1_subset(self):
        result = run_table1(names=["ctrl", "dec"], scale="ci")
        assert [r.name for r in result.rows] == ["ctrl", "dec"]
        total = result.total()
        assert total.naive_i == sum(r.naive_i for r in result.rows)

    def test_progress_callback(self):
        seen = []
        run_table1(names=["ctrl"], scale="ci", progress=lambda n, r: seen.append(n))
        assert seen == ["ctrl"]

    def test_format_contains_paper_totals(self):
        result = run_table1(names=["ctrl"], scale="ci")
        text = format_table1(result)
        assert "+61.40%" in text  # the paper's headline number
        assert "ctrl" in text
        assert "SUM" in text

    def test_paper_and_run_totals_share_one_sign_convention(self):
        """The footer's two lines read alike: fed the registry's copy of
        the paper's rows, "This run" prints the paper's published totals
        (to rounding), sign included — positive means fewer than naive."""
        rows = []
        for name in BENCHMARK_NAMES:
            p = benchmark_info(name).paper
            rows.append(Table1Row(
                name=name, pi=p.pi, po=p.po,
                naive_n=p.naive_n, naive_i=p.naive_i, naive_r=p.naive_r,
                rewr_n=p.rewr_n, rewr_i=p.rewr_i, rewr_r=p.rewr_r,
                full_i=p.full_i, full_r=p.full_r,
            ))
        result = Table1Result(
            rows=rows, scale="paper", effort=4, shuffled=False, paper_accounting=True
        )
        lines = format_table1(result).splitlines()
        paper = [line for line in lines if line.startswith("Paper Table 1 totals:")]
        run = [line for line in lines if line.startswith("This run:")]
        assert len(paper) == len(run) == 1

        def numbers(line):
            return [float(tok[:-1]) for tok in line.split() if tok.endswith("%")]

        published, reproduced = numbers(paper[0]), numbers(run[0])
        assert published == list(PAPER_TOTAL_IMPROVEMENTS)
        assert all(value > 0 for value in published)
        assert reproduced == pytest.approx(published, abs=0.015)

    def test_sum_row_depth_is_max_not_sum(self):
        """Depth is not additive across circuits: the Σ row reports the
        deepest circuit, marked as such."""
        result = run_table1(names=["ctrl", "dec"], scale="ci")
        total = result.total()
        assert total.naive_d == max(r.naive_d for r in result.rows)
        assert total.rewr_d == max(r.rewr_d for r in result.rows)
        assert f"max {total.naive_d}" in format_table1(result)

    def test_csv_export(self):
        result = run_table1(names=["ctrl"], scale="ci")
        csv_text = table1_csv(result)
        assert csv_text.startswith("Benchmark,")
        assert "ctrl" in csv_text

    def test_shuffled_mode(self):
        plain = run_benchmark("dec", "ci")
        shuffled = run_benchmark("dec", "ci", shuffled=True)
        # Same functions → the smart compiler lands on similar results;
        # the naive baseline may differ in R.
        assert shuffled.full_i == plain.full_i

    def test_paper_rows_table(self):
        text = paper_rows_table(["adder"])
        assert "adder" in text
        assert "2844" in text

    def test_measure_mig_honest_accounting(self):
        from repro.eval.fig3 import fig3a_before

        row_paper = measure_mig(fig3a_before(), "f3", paper_accounting=True)
        row_honest = measure_mig(fig3a_before(), "f3", paper_accounting=False)
        # honest mode charges the complemented output the rewriter creates
        assert row_honest.full_i >= row_paper.full_i


class TestAblations:
    def test_effort_sweep_monotone_interface(self):
        mig = build("int2float", "ci")
        points = ablations.effort_sweep(mig, efforts=(0, 1, 2))
        assert [p.effort for p in points] == [0, 1, 2]
        assert points[0].instructions >= points[-1].instructions
        text = ablations.format_effort_sweep("int2float", points)
        assert "effort" in text

    def test_selection_ablation(self):
        mig = build("cavlc", "ci")
        points = ablations.selection_ablation(mig)
        configs = {p.config for p in points}
        assert "naive" in configs and "paper-rules" in configs
        orders = {p.order for p in points}
        assert orders == {"as-built", "shuffled"}
        text = ablations.format_selection_ablation("cavlc", points)
        assert "shuffled" in text

    def test_allocator_ablation(self):
        mig = build("int2float", "ci")
        points = ablations.allocator_ablation(mig)
        by_policy = {p.policy: p for p in points}
        assert set(by_policy) == {"fifo", "lifo", "fresh"}
        # FRESH never reuses → most cells, lowest peak wear.
        assert by_policy["fresh"].rrams >= by_policy["fifo"].rrams
        assert by_policy["fresh"].wear.max_writes <= by_policy["lifo"].wear.max_writes
        text = ablations.format_allocator_ablation("int2float", points)
        assert "fifo" in text

    def test_polarity_ablation(self):
        mig = build("priority", "ci")
        points = ablations.polarity_ablation(mig)
        by_mode = {p.accounting: p for p in points}
        assert by_mode["honest"].inverted_outputs == 0
        assert by_mode["honest"].instructions >= 0
        text = ablations.format_polarity_ablation("priority", points)
        assert "honest" in text

    def test_combined_report(self):
        report = ablations.run_benchmark_ablations("int2float", "ci")
        assert "Effort sweep" in report
        assert "Allocator" in report
