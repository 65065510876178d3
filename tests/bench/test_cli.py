"""``repro bench`` CLI end-to-end (small smoke suite)."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.bench.results import cell_label, load_document, validate_document


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
