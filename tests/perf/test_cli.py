"""``repro perf`` end to end: a synthetic 50-run history flags an
injected 15% regression with exit code 23 (correct cell, correct
change-point sha), stays quiet on honest noise, and the verdict
document validates."""

from __future__ import annotations

import json
import random

import pytest

from repro.bench.results import (
    load_document as load_bench_document,
    save_document,
    validate_document,
)
from repro.errors import EXIT_PERF_DEGRADED
from repro.perf.cli import main as perf_main
from repro.perf.history import PerfHistory
from repro.perf.report import PERF_SCHEMA, validate_verdict_document
from tests.perf.conftest import make_cell, make_document, series_entries

BASE = 50_000


def write_history(path, cycle_values, **kwargs):
    history = PerfHistory(path)
    for entry in series_entries(cycle_values, **kwargs):
        history.append(entry)
    return history


@pytest.fixture
def degraded_history(history_path):
    # 30 runs at the base cycle count, then a +15% step for 20 runs
    write_history(history_path, [BASE] * 30 + [int(BASE * 1.15)] * 20)
    return history_path


@pytest.fixture
def noisy_wall_history(history_path):
    # deterministic cycles, +-3% Gaussian noise on wall time: the kind
    # of history an honest run produces on shared CI runners
    rng = random.Random(7)
    walls = [1.0 * (1.0 + rng.gauss(0.0, 0.03)) for _ in range(50)]
    write_history(history_path, [BASE] * 50, wall_values=walls)
    return history_path


class TestCheck:
    def test_injected_regression_exits_23(self, degraded_history, capsys):
        status = perf_main(["check", "--history", str(degraded_history)])
        assert status == EXIT_PERF_DEGRADED == 23
        err = capsys.readouterr().err
        assert "compress/advanced/4-way" in err
        assert "+15.0%" in err
        assert "sha0030" in err  # first run showing the new behaviour

    def test_clean_noisy_history_exits_0(self, noisy_wall_history, capsys):
        status = perf_main(["check", "--history", str(noisy_wall_history)])
        assert status == 0
        assert "DEGRADED" not in capsys.readouterr().out

    def test_json_verdict_document(self, degraded_history, capsys):
        status = perf_main(
            ["check", "--history", str(degraded_history), "--json"]
        )
        assert status == EXIT_PERF_DEGRADED
        doc = json.loads(capsys.readouterr().out)
        validate_verdict_document(doc)
        assert doc["schema"] == PERF_SCHEMA
        assert doc["status"] == "degraded"
        assert doc["gated_metrics"] == ["cycles"]
        [verdict] = [
            v for v in doc["verdicts"]
            if v["status"] == "degraded" and v["metric"] == "cycles"
        ]
        assert verdict["cell"] == "compress/advanced/4-way"
        assert verdict["change_sha"].startswith("sha0030")

    def test_report_file_written(self, degraded_history, tmp_path, capsys):
        report = tmp_path / "perf-report.txt"
        perf_main(
            ["check", "--history", str(degraded_history),
             "--report", str(report)]
        )
        text = report.read_text()
        assert "DEGRADED [cycles] compress/advanced/4-way" in text
        assert text == capsys.readouterr().out

    def test_empty_history_is_clean(self, history_path, capsys):
        assert perf_main(["check", "--history", str(history_path)]) == 0
        assert "nothing to check" in capsys.readouterr().err

    def test_wall_degradation_gates_only_with_flag(self, history_path):
        # cycles flat, wall time stepped +60%: reported, but exit 0
        # unless --gate-wall asks wall time to gate the run
        walls = [1.0] * 30 + [1.6] * 20
        write_history(history_path, [BASE] * 50, wall_values=walls)
        assert perf_main(["check", "--history", str(history_path)]) == 0
        status = perf_main(
            ["check", "--history", str(history_path), "--gate-wall"]
        )
        assert status == EXIT_PERF_DEGRADED


class TestAppendAndLog:
    def test_round_trip_through_the_main_cli(
        self, history_path, tmp_path, capsys
    ):
        from repro.__main__ import main as repro_main

        bench = tmp_path / "BENCH_fig8.json"
        save_document(make_document([make_cell()]), bench)
        status = repro_main(
            ["perf", "append", str(bench), "--history", str(history_path),
             "--sha", "f" * 40, "--branch", "main"]
        )
        assert status == 0
        status = repro_main(["perf", "log", "--history", str(history_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "f" * 12 in out
        assert "fig8" in out

    def test_append_rejects_invalid_document(self, history_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro-bench/1"}')
        status = perf_main(
            ["append", str(bad), "--history", str(history_path),
             "--sha", "a" * 40, "--branch", "main"]
        )
        assert status != 0
        assert not history_path.exists()

    def test_log_shows_cell_trajectory(self, degraded_history, capsys):
        perf_main(
            ["log", "--history", str(degraded_history),
             "--cell", "compress/advanced/4-way"]
        )
        out = capsys.readouterr().out
        assert f"{BASE} cycles" in out
        assert f"{int(BASE * 1.15)} cycles" in out


class TestRefreshBaseline:
    def test_accepted_improvement_regenerates_baseline(
        self, history_path, tmp_path, capsys
    ):
        write_history(
            history_path, [BASE] * 10 + [int(BASE * 0.85)] * 10
        )
        output = tmp_path / "baseline.json"
        status = perf_main(
            ["refresh-baseline", "--history", str(history_path),
             "--output", str(output)]
        )
        assert status == 0
        baseline = load_bench_document(output)
        validate_document(baseline)
        [cell] = baseline["cells"]
        assert cell["result"]["cycles"] == int(BASE * 0.85)

    def test_degradation_refused_without_flag(
        self, degraded_history, tmp_path
    ):
        output = tmp_path / "baseline.json"
        status = perf_main(
            ["refresh-baseline", "--history", str(degraded_history),
             "--output", str(output)]
        )
        assert status == EXIT_PERF_DEGRADED
        assert not output.exists()

    def test_degradation_accepted_with_flag(
        self, degraded_history, tmp_path
    ):
        output = tmp_path / "baseline.json"
        status = perf_main(
            ["refresh-baseline", "--history", str(degraded_history),
             "--output", str(output), "--allow-regression"]
        )
        assert status == 0
        [cell] = load_bench_document(output)["cells"]
        assert cell["result"]["cycles"] == int(BASE * 1.15)


class TestLegacyDocuments:
    def test_supervisor_fields_still_load(self, history_path, tmp_path):
        """Documents from before the sweep supervisor was simplified carry
        ``attempts``, ``attempt_seconds``, ``progress`` and ``breakers``;
        histories hold them, so validate/append/check/refresh-baseline
        must keep accepting them."""
        from repro.__main__ import main as repro_main

        cell = make_cell()
        cell.update(attempts=2, attempt_seconds=[0.9, 1.1])
        failure = {
            key: cell[key] for key in ("workload", "scheme", "scale", "key")
        }
        failure.update(
            width=8, cached=False, source="none", status="timeout",
            attempts=2, attempt_seconds=[4.0, 4.0],
            seconds=0.0, compute_seconds=0.0,
            error={"type": "Timeout", "stage": "simulate", "message": "..."},
            progress={"stage": "simulate", "cycles": 41_200},
        )
        doc = make_document([cell])
        doc["failures"] = [failure]
        doc["breakers"] = {
            "compress/advanced": {
                "state": "open", "consecutive_failures": 2,
                "threshold": 2, "skipped_cells": 1,
            }
        }
        validate_document(doc)
        bench = tmp_path / "BENCH_old.json"
        save_document(doc, bench)

        for sha in ("a" * 40, "b" * 40):
            assert repro_main(
                ["perf", "append", str(bench), "--history", str(history_path),
                 "--sha", sha, "--branch", "main"]
            ) == 0
        assert perf_main(["check", "--history", str(history_path)]) == 0
        output = tmp_path / "baseline.json"
        assert perf_main(
            ["refresh-baseline", "--history", str(history_path),
             "--output", str(output)]
        ) == 0
        baseline = load_bench_document(output)
        validate_document(baseline)
        assert "breakers" not in baseline
        assert baseline["cells"][0]["result"] == cell["result"]
