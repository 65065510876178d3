"""``repro bench`` end-to-end under injected faults.

The acceptance story: for every fault class the sweep still exits per
the ``--max-failures`` gate and writes a *partial but valid* BENCH
document — the failed cell in ``failures``, every surviving cell
bit-identical to a fault-free run — and a rerun recomputes only what
the result cache does not already hold.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.bench.harness import clear_memo
from repro.bench.results import load_document, validate_document
from repro.errors import EXIT_BENCH_FAILURES
from repro.experiments.runner import DEGRADE_ENV
from repro.faults import reset_faults
from repro.faults.inject import FAULTS_ENV


def bench(env, *extra) -> int:
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


@pytest.fixture
def env(tmp_path):
    return {
        "out": str(tmp_path / "BENCH_smoke.json"),
        "cache": str(tmp_path / "cache"),
        "tmp": tmp_path,
    }


def result_payloads(doc) -> dict[tuple, dict]:
    return {
        (c["workload"], c["scheme"], c["width"], c["scale"]): c["result"]
        for c in doc["cells"]
    }


class TestCrashGateAndResume:
    def test_crash_partial_document_then_resume(self, monkeypatch, env, tmp_path):
        # fault-free reference run (separate cache so nothing is shared)
        clean_out = str(tmp_path / "BENCH_clean.json")
        assert (
            bench(env, "-o", clean_out, "--cache-dir", str(tmp_path / "c0")) == 0
        )
        clean = result_payloads(load_document(clean_out))
        clear_memo()

        # every m88ksim worker dies: gate must fire, siblings must survive
        monkeypatch.setenv(FAULTS_ENV, "execute:crash:match=m88ksim")
        reset_faults()
        code = bench(env, "--jobs", "2")
        assert code == EXIT_BENCH_FAILURES

        doc = load_document(env["out"])
        validate_document(doc)  # partial documents still validate
        assert {c["workload"] for c in doc["cells"]} == {"compress"}
        assert len(doc["cells"]) == 3
        assert len(doc["failures"]) == 3
        for failure in doc["failures"]:
            assert failure["workload"] == "m88ksim"
            assert failure["status"] == "failed"
            assert failure["error"]["type"] == "BrokenProcessPool"
            assert "result" not in failure
        # surviving cells are bit-identical to the fault-free run
        survived = result_payloads(doc)
        assert survived == {k: v for k, v in clean.items() if k in survived}

        # clear the fault and rerun: the result cache resumes the sweep,
        # so only the crashed cells recompute
        monkeypatch.delenv(FAULTS_ENV)
        reset_faults()
        clear_memo()
        assert bench(env) == 0
        resumed = load_document(env["out"])
        validate_document(resumed)
        assert len(resumed["cells"]) == 6
        assert resumed["failures"] == []
        sources = {
            (c["workload"], c["scheme"]): c["source"] for c in resumed["cells"]
        }
        for scheme in ("conventional", "basic", "advanced"):
            assert sources[("compress", scheme)] == "disk"
            assert sources[("m88ksim", scheme)] == "computed"
        assert result_payloads(resumed) == clean


class TestPartitionFailureGate:
    def test_max_failures_gate_levels(self, monkeypatch, env):
        """Advanced-partition failure: basic+advanced m88ksim cells fail
        (conventional skips partitioning) and the gate counts exactly 2."""
        monkeypatch.setenv(
            FAULTS_ENV, "partition:error:type=PartitionError:match=m88ksim"
        )
        assert bench(env, "--max-failures", "1") == (
            EXIT_BENCH_FAILURES
        )
        doc = load_document(env["out"])
        validate_document(doc)
        assert len(doc["failures"]) == 2
        for failure in doc["failures"]:
            assert failure["error"]["type"] == "PartitionError"
            assert failure["error"]["stage"] == "partition"

        # same failures under a permissive gate: exit 0
        clear_memo()
        reset_faults()
        assert bench(env, "--max-failures", "2") == 0

    def test_degradation_keeps_the_sweep_green(self, monkeypatch, env):
        monkeypatch.setenv(
            FAULTS_ENV,
            "partition:error:type=PartitionError:match=m88ksim/advanced",
        )
        monkeypatch.setenv(DEGRADE_ENV, "1")
        assert bench(env) == 0
        doc = load_document(env["out"])
        assert doc["failures"] == []
        degraded = {
            (c["workload"], c["scheme"]): c["result"]["degraded"]
            for c in doc["cells"]
        }
        assert degraded[("m88ksim", "advanced")] is True
        assert degraded[("m88ksim", "conventional")] is False
        assert degraded[("compress", "advanced")] is False
        # the substituted result equals the basic-scheme cell
        cells = {(c["workload"], c["scheme"]): c["result"] for c in doc["cells"]}
        assert (
            cells[("m88ksim", "advanced")]["cycles"]
            == cells[("m88ksim", "basic")]["cycles"]
        )


class TestHangGate:
    def test_hung_cell_times_out_and_gates(self, monkeypatch, env):
        monkeypatch.setenv(
            FAULTS_ENV, "simulate:hang:secs=120:match=m88ksim"
        )
        code = bench(env, "--jobs", "2", "--timeout", "4")
        assert code == EXIT_BENCH_FAILURES
        doc = load_document(env["out"])
        validate_document(doc)
        assert {f["workload"] for f in doc["failures"]} == {"m88ksim"}
        assert {f["status"] for f in doc["failures"]} == {"timeout"}
        assert {c["workload"] for c in doc["cells"]} == {"compress"}


class TestCorruptCacheCli:
    def test_corrupt_cache_entries_recompute_identically(self, monkeypatch, env):
        assert bench(env) == 0
        first = load_document(env["out"])
        clear_memo()

        monkeypatch.setenv(FAULTS_ENV, "cache.get:corrupt")
        reset_faults()
        assert bench(env) == 0  # corruption costs recomputes, not failures
        second = load_document(env["out"])
        validate_document(second)
        assert second["failures"] == []
        assert all(c["source"] == "computed" for c in second["cells"])
        assert result_payloads(second) == result_payloads(first)

