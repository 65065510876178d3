"""``repro perf`` end to end: a synthetic 50-run history flags an
injected 15% wall-time step (correct cell, correct change-point sha),
reports it with exit 0 unless ``--gate-wall`` asks for exit 23, stays
quiet on honest noise, and the verdict document validates."""

from __future__ import annotations

import json
import random

import pytest

from repro.__main__ import main as repro_main
from repro.bench.results import save_document, validate_document
from repro.errors import EXIT_PERF_DEGRADED
from repro.perf.history import PerfHistory
from repro.perf.report import PERF_SCHEMA, validate_verdict_document
from tests.perf.conftest import (
    make_cell,
    make_document,
    make_entry,
    series_entries,
)


def perf_main(argv):
    return repro_main(["perf", *argv])


def write_history(path, wall_values):
    history = PerfHistory(path)
    for entry in series_entries(wall_values):
        history.append(entry)
    return history


@pytest.fixture
def degraded_history(history_path):
    # 30 runs at 1 s of compute per cell, then a +15% step for 20 runs
    write_history(history_path, [1.0] * 30 + [1.15] * 20)
    return history_path


@pytest.fixture
def noisy_wall_history(history_path):
    # +-3% Gaussian noise on wall time: the kind of history an honest
    # run produces on shared CI runners
    rng = random.Random(7)
    write_history(
        history_path, [1.0 * (1.0 + rng.gauss(0.0, 0.03)) for _ in range(50)]
    )
    return history_path


class TestCheck:
    def test_injected_regression_exits_23(self, degraded_history, capsys):
        status = perf_main(
            ["check", "--history", str(degraded_history), "--gate-wall"]
        )
        assert status == EXIT_PERF_DEGRADED == 23
        err = capsys.readouterr().err
        assert "compress/advanced/4-way" in err
        assert "+15.0%" in err
        assert "sha0030" in err  # first run showing the new behaviour

    def test_clean_noisy_history_exits_0(self, noisy_wall_history, capsys):
        status = perf_main(
            ["check", "--history", str(noisy_wall_history), "--gate-wall"]
        )
        assert status == 0
        assert "DEGRADED" not in capsys.readouterr().out

    def test_json_verdict_document(self, degraded_history, capsys):
        status = perf_main(
            ["check", "--history", str(degraded_history), "--gate-wall",
             "--json"]
        )
        assert status == EXIT_PERF_DEGRADED
        doc = json.loads(capsys.readouterr().out)
        validate_verdict_document(doc)
        assert doc["schema"] == PERF_SCHEMA
        assert doc["status"] == "degraded"
        assert doc["gated_metrics"] == ["wall"]
        [verdict] = [v for v in doc["verdicts"] if v["status"] == "degraded"]
        assert verdict["metric"] == "wall"
        assert verdict["cell"] == "compress/advanced/4-way"
        assert verdict["change_sha"].startswith("sha0030")

    def test_report_file_written(self, degraded_history, tmp_path, capsys):
        report = tmp_path / "perf-report.txt"
        perf_main(
            ["check", "--history", str(degraded_history),
             "--report", str(report)]
        )
        text = report.read_text()
        assert "DEGRADED [wall] compress/advanced/4-way" in text
        assert text == capsys.readouterr().out

    def test_empty_history_is_clean(self, history_path, capsys):
        assert perf_main(["check", "--history", str(history_path)]) == 0
        assert "nothing to check" in capsys.readouterr().err

    def test_wall_degradation_gates_only_with_flag(self, history_path, capsys):
        # wall time stepped +60%: reported, but exit 0 and an "ok"
        # verdict unless --gate-wall asks wall time to gate the run
        write_history(history_path, [1.0] * 30 + [1.6] * 20)
        assert perf_main(
            ["check", "--history", str(history_path), "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok" and doc["gated_metrics"] == []
        assert [v["status"] for v in doc["verdicts"]] == ["degraded"]
        status = perf_main(
            ["check", "--history", str(history_path), "--gate-wall"]
        )
        assert status == EXIT_PERF_DEGRADED


class TestAppendAndLog:
    def test_round_trip_through_the_main_cli(
        self, history_path, tmp_path, capsys
    ):
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
        PerfHistory(degraded_history).append(
            make_entry([make_cell(cached=True)], sha="c" * 40)
        )
        perf_main(
            ["log", "--history", str(degraded_history),
             "--cell", "compress/advanced/4-way"]
        )
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 51
        assert lines[0].endswith("compress/advanced/4-way: 1.000s")
        assert lines[-2].endswith("compress/advanced/4-way: 1.150s")
        assert lines[-1].endswith("compress/advanced/4-way: cached")
        assert "cycles" not in "".join(lines)


class TestLegacyDocuments:
    def test_supervisor_fields_still_load(self, history_path, tmp_path):
        """Documents from before the sweep supervisor was simplified carry
        ``attempts``, ``attempt_seconds``, ``progress`` and ``breakers``;
        histories hold them, so validate/append/check must keep
        accepting them."""
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
        assert [e.sha for e in PerfHistory(history_path).entries()] == [
            "a" * 40, "b" * 40
        ]
