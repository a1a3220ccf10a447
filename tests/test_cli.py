"""Tests for the plimc command-line interface."""

import pytest

from repro.cli import build_parser, load_circuit, main
from repro.eval.fig3 import fig3b
from repro.mig.io_aiger import write_aiger
from repro.mig.io_blif import write_blif
from repro.mig.io_mig import write_mig

from test_io import NON_UTF8
from test_program import CELL_BOMBS, MALFORMED_PLIM, fails_fast_and_small


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "fig3b.mig"
    write_mig(fig3b(), str(path))
    return str(path)


class TestLoadCircuit:
    def test_dispatch_by_extension(self, tmp_path):
        mig = fig3b()
        for suffix, writer in ((".mig", write_mig), (".blif", write_blif), (".aag", write_aiger)):
            path = tmp_path / f"c{suffix}"
            writer(mig, str(path))
            loaded = load_circuit(str(path))
            assert loaded.num_pis == 3

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("")
        assert main(["stats", str(path)]) == 2  # ReproError → exit 2

    @pytest.mark.parametrize("case", sorted(NON_UTF8))
    def test_non_utf8_circuit_exits_2_without_traceback(self, case, tmp_path, capsys):
        data, line = NON_UTF8[case]
        path = tmp_path / f"bad.{case.split('-')[0]}"
        path.write_bytes(data)
        assert main(["compile", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"plimc: error: line {line}: not valid UTF-8")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestCompileCommand:
    def test_compile_to_file(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "out.plim"
        assert main(["compile", circuit_file, "-o", str(out), "--verify"]) == 0
        text = out.read_text()
        assert text.startswith(".plim")
        captured = capsys.readouterr()
        assert "OK" in captured.err

    def test_compile_listing(self, circuit_file, capsys):
        assert main(["compile", circuit_file, "--listing", "--no-rewrite"]) == 0
        out = capsys.readouterr().out
        assert "01:" in out

    def test_compile_stdout_program(self, circuit_file, capsys):
        assert main(["compile", circuit_file]) == 0
        assert capsys.readouterr().out.startswith(".plim")

    def test_naive_flag(self, circuit_file, capsys):
        assert main(["compile", circuit_file, "--naive", "--no-rewrite", "--listing"]) == 0
        # naive translation of fig3b: exactly 19 instructions
        lines = [l for l in capsys.readouterr().out.splitlines() if l[:2].isdigit()]
        assert len(lines) == 19


class TestRunCommand:
    def test_run_program(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "out.plim"
        main(["compile", circuit_file, "-o", str(out)])
        code = main(
            ["run", str(out), "--set", "i1=1", "--set", "i2=0", "--set", "i3=1"]
        )
        assert code == 0
        assert "f = " in capsys.readouterr().out

    def test_missing_inputs(self, circuit_file, tmp_path):
        out = tmp_path / "out.plim"
        main(["compile", circuit_file, "-o", str(out)])
        assert main(["run", str(out), "--set", "i1=1"]) == 2

    def test_bad_value(self, circuit_file, tmp_path):
        out = tmp_path / "out.plim"
        main(["compile", circuit_file, "-o", str(out)])
        assert main(["run", str(out), "--set", "i1=2"]) == 2

    @pytest.mark.parametrize("command", ["run", "controller"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_PLIM))
    def test_malformed_program_exits_2_without_traceback(
        self, command, case, tmp_path, capsys
    ):
        data, line = MALFORMED_PLIM[case]
        path = tmp_path / "bad.plim"
        path.write_bytes(data)
        assert main([command, str(path), "--set", "a=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"plimc: error: line {line}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "controller"])
    @pytest.mark.parametrize("case", CELL_BOMBS)
    def test_cell_cap_exits_2_fast_and_small(self, command, case, tmp_path, capsys):
        path = tmp_path / "bomb.plim"
        path.write_bytes(MALFORMED_PLIM[case][0])

        def run():
            raise SystemExit(main([command, str(path), "--set", "a=1"]))

        fails_fast_and_small(run, SystemExit)
        assert "cell limit" in capsys.readouterr().err


class TestOtherCommands:
    def test_stats(self, circuit_file, capsys):
        assert main(["stats", circuit_file]) == 0
        assert "gates=6" in capsys.readouterr().out

    def test_bench(self, capsys):
        assert main(["bench", "ctrl", "--scale", "ci"]) == 0
        out = capsys.readouterr().out
        assert "naive:" in out and "rewriting+compilation:" in out

    def test_table1_subset(self, capsys):
        assert main(["table1", "--names", "ctrl", "--scale", "ci"]) == 0
        out = capsys.readouterr().out
        assert "SUM" in out

    def test_table1_csv(self, capsys):
        assert main(["table1", "--names", "ctrl", "--scale", "ci", "--csv"]) == 0
        assert capsys.readouterr().out.startswith("Benchmark,")

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "(paper: 15, 4)" in capsys.readouterr().out

    def test_fig3_listings(self, capsys):
        assert main(["fig3", "--listings"]) == 0
        assert "Fig. 3(b) smart" in capsys.readouterr().out

    def test_ablate(self, capsys):
        assert main(["ablate", "int2float", "--scale", "ci"]) == 0
        assert "Allocator" in capsys.readouterr().out

    def test_parser_version(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--version"])


class TestParetoCommand:
    def test_pareto_registry_benchmark(self, capsys):
        assert main(["pareto", "i2c", "--scale", "ci", "--workers", "1"]) == 0
        captured = capsys.readouterr()
        assert "Pareto (#N, #D) frontier — i2c" in captured.out
        assert "#N" in captured.out and "#D" in captured.out
        assert "non-dominated point(s)" in captured.err

    def test_pareto_circuit_file(self, circuit_file, capsys):
        assert main(["pareto", circuit_file, "--workers", "1"]) == 0
        assert "frontier" in capsys.readouterr().out

    def test_pareto_json(self, capsys):
        import json as json_module

        assert main(
            ["pareto", "ctrl", "--scale", "ci", "--workers", "1", "--json"]
        ) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["circuit"] == "ctrl"
        assert payload["points"]
        for point in payload["points"]:
            assert point["equivalence"] in ("exhaustive", "random")
            if point["budget"] is not None:
                assert point["depth"] <= point["budget"]

    def test_pareto_no_verify(self, capsys):
        assert main(
            ["pareto", "ctrl", "--scale", "ci", "--workers", "1",
             "--no-verify", "--json"]
        ) == 0
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        assert all(p["equivalence"] is None for p in payload["points"])

    def test_pareto_unknown_circuit(self):
        assert main(["pareto", "not-a-benchmark"]) == 2

    def test_pareto_cold_flag_is_usage_error(self, capsys):
        """Every sweep point is already a cold rewrite, so there is no
        --cold to ask for one."""
        with pytest.raises(SystemExit) as excinfo:
            main(["pareto", "int2float", "--scale", "ci", "--cold"])
        assert excinfo.value.code == 2
        assert "--cold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "phase, label", [("anchor", "size"), ("budget", "budget=")]
    )
    def test_pareto_failure_names_its_point(self, monkeypatch, capsys, phase, label):
        """A skip-mode sweep prints one stderr line per lost point, named
        by its label rather than its task index."""
        from faults import Fault, FaultPlan, anchor_point, budget_point, install

        only = anchor_point if phase == "anchor" else budget_point
        install(
            monkeypatch, "repro.core.pareto._point_task",
            FaultPlan({0: Fault("raise")}, only=only),
        )
        code = main(["pareto", "router", "--scale", "ci", "--workers", "1",
                     "--on-error", "skip"])
        assert code == 0
        failed = [
            line for line in capsys.readouterr().err.splitlines()
            if " failed after " in line
        ]
        assert len(failed) == 1
        assert failed[0].startswith(f"plimc: pareto: {label}")


class TestCacheCommands:
    def test_pareto_cache_dir_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["pareto", "ctrl", "--scale", "ci", "--workers", "1",
                "--cache-dir", cache_dir, "--json"]
        import json as json_module

        assert main(args) == 0
        first = json_module.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json_module.loads(capsys.readouterr().out)
        assert second == first  # front hit: identical output, stored timings

    def test_compile_cache_dir(self, circuit_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        out = tmp_path / "out.plim"
        args = ["compile", circuit_file, "-o", str(out), "--cache-dir", cache_dir]
        assert main(args) == 0
        cold = out.read_text()
        assert main(args) == 0
        assert out.read_text() == cold

    def test_table1_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["table1", "--names", "ctrl", "--scale", "ci", "--workers", "1",
                "--cache-dir", cache_dir]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == cold

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["pareto", "ctrl", "--scale", "ci", "--workers", "1",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "rewrites" in out and "fronts" in out and "total" in out
        assert main(["cache", "clear", cache_dir]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "rewrites          0 entries" in out


class TestNewCompileFlags:
    def test_max_rrams_flag(self, circuit_file, capsys):
        assert main(["compile", circuit_file, "--max-rrams", "6", "--listing"]) == 0
        err = capsys.readouterr().err
        assert "work RRAMs" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_max_rrams_below_one_exits_2(self, circuit_file, budget, capsys):
        assert main(["compile", circuit_file, "--max-rrams", budget]) == 2
        err = capsys.readouterr().err
        assert err.startswith("plimc: error: max_work_cells must be")
        assert "Traceback" not in err

    def test_duplicate_output_names_exit_2(self, tmp_path, capsys):
        """Two outputs named f (a∧b and its complement) once compiled to
        a program with a single ``.output f``."""
        path = tmp_path / "dup.aag"
        path.write_text("aag 3 2 0 2 1\n2\n4\n6\n7\n6 2 4\ni0 a\ni1 b\no0 f\no1 f\n")
        assert main(["compile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "duplicate output name 'f'" in captured.err

    def test_emit_verilog(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "out.v"
        assert main(["compile", circuit_file, "--emit-verilog", str(out), "--listing"]) == 0
        text = out.read_text()
        assert text.startswith("// generated by repro")
        assert "endmodule" in text

    def test_depth_rewrite_flag(self, circuit_file, capsys):
        """The removed --depth-rewrite flag is a usage error; its
        replacement, --objective balanced, compiles correctly."""
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", circuit_file, "--depth-rewrite"])
        assert excinfo.value.code == 2
        assert "--depth-rewrite" in capsys.readouterr().err
        assert main(
            ["compile", circuit_file, "--objective", "balanced", "--listing", "--verify"]
        ) == 0
        assert "OK" in capsys.readouterr().err

    @pytest.mark.parametrize("objective", ["size", "depth", "balanced"])
    def test_objective_flag(self, circuit_file, objective, capsys):
        assert main(
            ["compile", circuit_file, "--objective", objective, "--verify"]
        ) == 0
        assert "OK" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["worklist", "rebuild"])
    def test_engine_flag_is_usage_error(self, circuit_file, engine, capsys):
        """Algorithm 1 has one engine, so there is no --engine to pick it."""
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", circuit_file, "--objective", "depth", "--engine", engine])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_depth_rewrite_with_no_rewrite_still_depth_rewrites(
        self, circuit_file, tmp_path, capsys
    ):
        """What ``--no-rewrite --depth-rewrite`` did — depth rewriting
        without Algorithm 1's size rules — is ``--objective depth``."""
        from repro.core.pipeline import compile_mig
        from repro.mig.analysis import depth
        from repro.mig.io_mig import read_mig

        out = tmp_path / "depth.plim"
        assert main(
            ["compile", circuit_file, "--objective", "depth", "--verify", "-o", str(out)]
        ) == 0
        assert "OK" in capsys.readouterr().err
        mig = read_mig(circuit_file)
        expected = compile_mig(mig, objective="depth")
        assert out.read_text(encoding="utf-8") == expected.program.to_text()
        assert depth(expected.compiled_mig) <= depth(mig.cleanup()[0])

    def test_depth_rewrite_respects_explicit_objective(self, circuit_file, tmp_path):
        """The program is exactly the one the chosen --objective yields."""
        from repro.core.pipeline import compile_mig
        from repro.mig.io_mig import read_mig

        for objective in ("size", "depth"):
            out = tmp_path / f"{objective}.plim"
            assert main(
                ["compile", circuit_file, "--objective", objective, "-o", str(out)]
            ) == 0
            expected = compile_mig(read_mig(circuit_file), objective=objective)
            assert out.read_text(encoding="utf-8") == expected.program.to_text()

    def test_controller_command(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "out.plim"
        main(["compile", circuit_file, "-o", str(out)])
        code = main(
            ["controller", str(out), "--set", "i1=1", "--set", "i2=0", "--set", "i3=1"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "f = " in captured.out
        assert "fetch" in captured.err


class TestResilienceFlags:
    """ISSUE 7: --timeout/--retries/--on-error plumbing and exit codes."""

    def test_policy_flags_parse(self):
        args = build_parser().parse_args(
            ["table1", "--timeout", "5", "--retries", "2", "--on-error", "skip"]
        )
        assert args.timeout == 5.0
        assert args.retries == 2
        assert args.on_error == "skip"

    def test_negative_timeout_exits_2(self, capsys):
        code = main(["table1", "--names", "ctrl", "--scale", "ci",
                     "--timeout", "-1"])
        assert code == 2
        assert "timeout_s" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--names", "ctrl", "dec", "--scale", "ci",
             "--workers", "2", "--timeout", "inf"],
            ["serve", "--pooled", "--port", "0", "--timeout", "inf"],
        ],
        ids=["table1", "serve"],
    )
    def test_infinite_timeout_exits_2(self, argv, capsys):
        # the pool cannot wait forever: refused before any work starts
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("plimc: error:")
        assert "timeout_s" in err[0]

    def test_negative_retries_exits_2(self, capsys):
        code = main(["batch", "ctrl", "--scale", "ci", "--retries", "-3"])
        assert code == 2
        assert "retries" in capsys.readouterr().err

    def test_missing_circuit_file_exits_2_without_traceback(self, capsys):
        code = main(["compile", "no-such-circuit.blif"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("plimc: error:")
        assert "Traceback" not in err

    def test_policy_flags_accepted_on_a_real_run(self, capsys):
        code = main(["pareto", "ctrl", "--scale", "ci", "--workers", "1",
                     "--timeout", "300", "--retries", "1", "--on-error", "skip"])
        assert code == 0

    def test_task_error_exits_3(self, monkeypatch, capsys):
        from repro.core.resilience import TaskError, TaskFailure

        def exploding(args):
            raise TaskError(TaskFailure(0, "crash", "worker died"))

        monkeypatch.setattr("repro.cli._cmd_table1", exploding)
        parser = build_parser()
        args = parser.parse_args(["table1"])
        args.func = exploding
        monkeypatch.setattr("repro.cli.build_parser", lambda: parser)
        monkeypatch.setattr(parser, "parse_args", lambda argv: args)
        assert main(["table1"]) == 3
        assert "task failed" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        parser = build_parser()
        args = parser.parse_args(["fig3"])

        def interrupted(args):
            raise KeyboardInterrupt

        args.func = interrupted
        monkeypatch.setattr("repro.cli.build_parser", lambda: parser)
        monkeypatch.setattr(parser, "parse_args", lambda argv: args)
        assert main(["fig3"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_skip_mode_reports_failed_rows(self, monkeypatch, capsys):
        """A skip-mode table1 run prints one line per lost benchmark."""
        from faults import Fault, FaultPlan, install

        install(
            monkeypatch, "repro.eval.table1._benchmark_task",
            FaultPlan({0: Fault("raise")}),
        )
        code = main(["table1", "--names", "ctrl", "dec", "--scale", "ci",
                     "--workers", "2", "--on-error", "skip"])
        assert code == 0
        err = capsys.readouterr().err
        assert "ctrl failed" in err and "error" in err


class TestCacheMaxBytes:
    def test_trim_subcommand(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["pareto", "ctrl", "--scale", "ci", "--workers", "1",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "trim", cache_dir, "--max-bytes", "0"]) == 0
        assert "evicted" in capsys.readouterr().out
        assert main(["cache", "stats", cache_dir]) == 0
        assert " 0 entries" in capsys.readouterr().out.splitlines()[-1]

    def test_cache_max_bytes_needs_cache_dir(self, capsys):
        code = main(["table1", "--names", "ctrl", "--scale", "ci",
                     "--cache-max-bytes", "1000"])
        assert code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_cache_max_bytes_is_enforced(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["pareto", "i2c", "--scale", "ci", "--workers", "1",
                     "--cache-dir", cache_dir, "--cache-max-bytes", "600"]) == 0
        from repro.core.cache import SynthesisCache

        usage = SynthesisCache(cache_dir).disk_usage()
        total = sum(u["bytes"] for u in usage.values())
        entries = sum(u["entries"] for u in usage.values())
        assert total <= 600 or entries == 1
