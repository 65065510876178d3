"""``repro bench`` CLI end-to-end (small smoke suite)."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.bench.cache import ResultCache
from repro.bench.harness import clear_memo
from repro.bench.results import cell_label, load_document, validate_document
from repro.errors import EXIT_BENCH_FAILURES, PartitionError
from repro.experiments import runner

from .conftest import crash, hang, script_cells


@pytest.fixture
def bench_env(tmp_path):
    return {
        "out": str(tmp_path / "BENCH_smoke.json"),
        "cache": str(tmp_path / "cache"),
    }


def bench(env, *extra):
    return main(
        [
            "bench",
            "--suite",
            "smoke",
            "--quiet",
            "--cache-dir",
            env["cache"],
            "-o",
            env["out"],
            *extra,
        ]
    )


class TestBenchCli:
    def test_list_suites(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for suite in ("fig8", "fig9", "fig10", "smoke", "all"):
            assert suite in out

    def test_unknown_suite(self, capsys):
        assert main(["bench", "--suite", "fig99"]) == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_emits_valid_document(self, bench_env):
        assert bench(bench_env) == 0
        doc = load_document(bench_env["out"])
        validate_document(doc)
        assert doc["suite"] == "smoke"
        assert len(doc["cells"]) == 6
        assert {c["scheme"] for c in doc["cells"]} == {
            "conventional",
            "basic",
            "advanced",
        }

    def test_unwritable_cache_dir_still_writes_the_document(self, bench_env, tmp_path):
        """A result cache that cannot be written costs reuse, not cells:
        every cell still resolves and the document is written."""
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should be")
        assert bench({**bench_env, "cache": str(blocked)}) == 0
        doc = load_document(bench_env["out"])
        validate_document(doc)
        assert len(doc["cells"]) == 6 and doc["failures"] == []
        assert blocked.read_text() == "a file where the cache dir should be"

    def test_warm_rerun_hits_cache(self, bench_env):
        """Acceptance bar: warm rerun reports >90% cache hits."""
        assert bench(bench_env) == 0
        assert bench(bench_env) == 0
        doc = load_document(bench_env["out"])
        assert doc["cache"]["hit_rate"] > 0.9
        assert all(cell["cached"] for cell in doc["cells"])

    def test_self_baseline_passes(self, bench_env, capsys):
        assert bench(bench_env) == 0
        assert bench(bench_env, "--baseline", bench_env["out"]) == 0
        assert "verdict       : OK" in capsys.readouterr().out

    def test_regression_fails_gate(self, bench_env, tmp_path, capsys):
        assert bench(bench_env) == 0
        doc = load_document(bench_env["out"])
        # one D-cache miss fewer in one committed cell: the exact gate
        # must name that cell and that counter
        cell = doc["cells"][0]
        misses = cell["result"]["stats"]["dcache_misses"]
        cell["result"]["stats"]["dcache_misses"] = misses - 1
        tampered = tmp_path / "baseline.json"
        tampered.write_text(json.dumps(doc))
        assert bench(bench_env, "--baseline", str(tampered)) == 1
        out = capsys.readouterr().out
        assert (
            f"MISMATCH      : {cell_label(cell)}: stats.dcache_misses "
            f"{misses - 1} -> {misses}"
        ) in out
        assert out.count("MISMATCH") == 1

    def test_negative_max_failures_is_a_usage_error(self, bench_env, capsys):
        with pytest.raises(SystemExit) as exc:
            bench(bench_env, "--max-failures", "-1")
        assert exc.value.code == 2
        assert "--max-failures: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["0", "-1", "inf"])
    def test_non_positive_timeout_is_a_usage_error(self, bench_env, capsys, timeout):
        with pytest.raises(SystemExit) as exc:
            bench(bench_env, "--timeout", timeout)
        assert exc.value.code == 2
        assert "--timeout: must be a finite number > 0" in capsys.readouterr().err

    def test_validate_mode(self, bench_env, capsys):
        assert bench(bench_env) == 0
        assert main(["bench", "--validate", bench_env["out"]]) == 0
        assert "valid repro-bench/1" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main(["bench", "--validate", str(bad)]) == 1
        assert "invalid bench document" in capsys.readouterr().err


class TestCommittedBaseline:
    def test_baseline_json_is_a_valid_fig8_document(self):
        """The committed CI baseline must always parse and validate."""
        import pathlib

        baseline = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "baseline.json"
        )
        doc = load_document(baseline)
        validate_document(doc)
        assert doc["suite"] == "fig8"
        assert len(doc["cells"]) == 14  # 7 SPECINT surrogates x 2 schemes


def result_payloads(doc) -> dict[tuple, dict]:
    return {
        (c["workload"], c["scheme"], c["width"], c["scale"]): c["result"]
        for c in doc["cells"]
    }


class TestFailureGate:
    """A sweep with failures exits per ``--max-failures`` and still writes
    a partial but valid document; a rerun recomputes only what the
    result cache does not hold."""

    def test_crash_partial_document_then_resume(self, monkeypatch, bench_env, tmp_path):
        # clean reference run (separate cache so nothing is shared)
        clean_env = {"out": str(tmp_path / "clean.json"), "cache": str(tmp_path / "c0")}
        assert bench(clean_env) == 0
        clean = result_payloads(load_document(clean_env["out"]))
        clear_memo()

        # every m88ksim worker dies: the gate fires, siblings survive
        with monkeypatch.context() as patch:
            script_cells(patch, "m88ksim", crash)
            assert bench(bench_env, "--jobs", "2") == EXIT_BENCH_FAILURES
        doc = load_document(bench_env["out"])
        validate_document(doc)
        assert {c["workload"] for c in doc["cells"]} == {"compress"}
        assert len(doc["cells"]) == 3 and len(doc["failures"]) == 3
        for failure in doc["failures"]:
            assert failure["workload"] == "m88ksim"
            assert failure["status"] == "failed"
            assert failure["error"]["type"] == "BrokenProcessPool"
            assert "result" not in failure
        survived = result_payloads(doc)
        assert survived == {k: v for k, v in clean.items() if k in survived}

        # rerun without the crash: only the crashed cells recompute
        clear_memo()
        assert bench(bench_env) == 0
        resumed = load_document(bench_env["out"])
        validate_document(resumed)
        assert resumed["failures"] == []
        sources = {(c["workload"], c["scheme"]): c["source"] for c in resumed["cells"]}
        for scheme in ("conventional", "basic", "advanced"):
            assert sources[("compress", scheme)] == "disk"
            assert sources[("m88ksim", scheme)] == "computed"
        assert result_payloads(resumed) == clean

    def test_max_failures_gate_levels(self, monkeypatch, bench_env):
        """Every partition fails: the four basic and advanced cells are
        failures (conventional cells do not partition)."""

        def failing(*args, **kwargs):
            raise PartitionError("scripted")

        monkeypatch.setattr(runner, "partition_program", failing)
        assert bench(bench_env, "--max-failures", "3") == EXIT_BENCH_FAILURES
        doc = load_document(bench_env["out"])
        validate_document(doc)
        assert len(doc["failures"]) == 4
        assert {c["scheme"] for c in doc["cells"]} == {"conventional"}
        for failure in doc["failures"]:
            assert failure["error"]["type"] == "PartitionError"
            assert failure["error"]["stage"] == "partition"
        # the same failures under a permissive gate: exit 0
        assert bench(bench_env, "--max-failures", "4") == 0

    def test_hung_cell_times_out_and_gates(self, monkeypatch, bench_env):
        script_cells(monkeypatch, "m88ksim", hang)
        assert bench(bench_env, "--jobs", "2", "--timeout", "4") == EXIT_BENCH_FAILURES
        doc = load_document(bench_env["out"])
        validate_document(doc)
        assert {f["workload"] for f in doc["failures"]} == {"m88ksim"}
        assert {f["status"] for f in doc["failures"]} == {"timeout"}
        assert {c["workload"] for c in doc["cells"]} == {"compress"}

    def test_torn_cache_entries_recompute_identically(self, bench_env):
        assert bench(bench_env) == 0
        first = load_document(bench_env["out"])
        cache = ResultCache(bench_env["cache"])
        for cell in first["cells"]:
            cache.put(cell["key"], {"result": {"__torn__": True}})
        clear_memo()

        assert bench(bench_env) == 0  # torn entries cost recomputes, not failures
        second = load_document(bench_env["out"])
        validate_document(second)
        assert second["failures"] == []
        assert all(c["source"] == "computed" for c in second["cells"])
        assert result_payloads(second) == result_payloads(first)
