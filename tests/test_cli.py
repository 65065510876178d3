"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main

SOURCE = """
int t[16];
int main() {
    int i; int s = 0;
    for (i = 0; i < 16; i = i + 1) { t[i] = i ^ 5; }
    for (i = 0; i < 16; i = i + 1) { s = s + t[i]; }
    return s;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(SOURCE)
    return str(path)


class TestCli:
    def test_compile(self, source_file, capsys):
        assert main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "func main(0) returns {" in out
        assert "global t 64" in out

    def test_compile_no_opt_is_larger(self, source_file, capsys):
        main(["compile", source_file])
        optimized = capsys.readouterr().out
        main(["compile", "--no-opt", source_file])
        raw = capsys.readouterr().out
        assert len(raw.splitlines()) >= len(optimized.splitlines())

    def test_run(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        out = capsys.readouterr().out
        expected = sum(i ^ 5 for i in range(16))
        assert f"result: {expected}" in out

    def test_partition_annotations(self, source_file, capsys):
        assert main(["partition", source_file]) == 0
        out = capsys.readouterr().out
        assert "FPa" in out and "offloaded" in out
        assert "opcodes:" in out

    def test_partition_basic_scheme(self, source_file, capsys):
        assert main(["partition", "--scheme", "basic", source_file]) == 0
        assert "[basic scheme]" in capsys.readouterr().out

    def test_partition_with_balance_limit(self, source_file, capsys):
        assert main(["partition", "--balance-limit", "0.1", source_file]) == 0

    def test_partition_interprocedural_flag(self, source_file, capsys):
        assert main(["partition", "--interprocedural", source_file]) == 0
        assert "interprocedural:" in capsys.readouterr().out

    def test_simulate(self, source_file, capsys):
        assert main(["simulate", source_file]) == 0
        out = capsys.readouterr().out
        assert "conventional" in out and "advanced" in out
        assert "speedup" in out

    def test_simulate_8way(self, source_file, capsys):
        assert main(["simulate", "--width", "8", source_file]) == 0
        assert "8-way" in capsys.readouterr().out

    def test_simulate_timeline(self, source_file, capsys):
        assert main(["simulate", "--timeline", "8", source_file]) == 0
        out = capsys.readouterr().out
        assert "pipeline timeline" in out
        assert "cycle" in out

    def test_report_static(self, capsys):
        assert main(["report", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        from repro.errors import EXIT_IO

        assert main(["run", "/nonexistent/prog.mc"]) == EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_directory_input_prints_clean_error(self, tmp_path, capsys):
        """IsADirectoryError (any OSError) gets a message, not a traceback."""
        from repro.errors import EXIT_IO

        assert main(["run", str(tmp_path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_semantic_error_reported(self, tmp_path, capsys):
        from repro.errors import SemanticError

        path = tmp_path / "bad.mc"
        path.write_text("int main() { return ghost; }")
        assert main(["run", str(path)]) == SemanticError.exit_code
        assert "undeclared" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        from repro.errors import ParseError

        path = tmp_path / "bad.mc"
        path.write_text("int main( { return 1; }")
        assert main(["run", str(path)]) == ParseError.exit_code
        assert "error" in capsys.readouterr().err

    def test_exit_codes_are_distinct_and_documented(self):
        """Every error class maps to its own CLI exit status."""
        from repro.errors import EXIT_CODES, EXIT_BENCH_FAILURES, EXIT_IO

        codes = list(EXIT_CODES.values())
        assert len(set(codes)) == len(codes)
        # 20, 22 and 24 are retired codes that must never be reassigned
        reserved = {0, 2, EXIT_IO, EXIT_BENCH_FAILURES, 20, 22, 24}
        assert reserved.isdisjoint(set(codes))

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_retired_commands_are_unknown(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("int main() { return 9; }"))
        assert main(["run", "-"]) == 0
        assert "result: 9" in capsys.readouterr().out

    def test_workload_source_spec(self, capsys):
        """``workload:<name>`` compiles a registered workload's generated
        source — the spelling CI uses to lint every benchmark input."""
        assert main(["compile", "workload:perl"]) == 0
        assert "func main" in capsys.readouterr().out

    def test_workload_source_spec_lints(self, capsys):
        assert (
            main(["lint", "workload:perl", "--scheme", "basic", "--fail-on", "warning"])
            == 0
        )
        assert "0 error(s)" in capsys.readouterr().out

    def test_unknown_workload_spec(self, capsys):
        from repro.errors import WorkloadError

        assert main(["compile", "workload:doom"]) == WorkloadError.exit_code
        assert "unknown workload" in capsys.readouterr().err
