"""BENCH document serialization, validation, and baseline comparison."""

from __future__ import annotations

import pytest

from repro.bench.compare import compare_documents, format_report
from repro.bench.harness import run_cells
from repro.bench.matrix import Cell
from repro.bench.results import (
    BENCH_SCHEMA,
    build_document,
    result_from_dict,
    result_to_dict,
    validate_document,
)
from repro.errors import ReproError

from .conftest import SMALL

CELL = Cell("m88ksim", "advanced", 4, 2)


@pytest.fixture(scope="module")
def document():
    outcomes = run_cells([CELL, Cell("m88ksim", "conventional", 4, 2)])
    return build_document("unit", outcomes, jobs=1, total_seconds=1.0)


class TestRoundTrip:
    def test_result_round_trips_losslessly(self):
        [outcome] = run_cells([CELL])
        doc = result_to_dict(outcome.result)
        rebuilt = result_from_dict(doc)
        assert result_to_dict(rebuilt) == doc
        assert rebuilt.cycles == outcome.result.cycles
        assert rebuilt.stats.to_counters() == outcome.result.stats.to_counters()
        assert rebuilt.ipc == outcome.result.ipc

    def test_missing_field_rejected(self):
        with pytest.raises(ReproError, match="missing"):
            result_from_dict({"name": "x"})


class TestValidation:
    def test_built_document_is_valid(self, document):
        validate_document(document)
        assert document["schema"] == BENCH_SCHEMA
        assert document["code_version"]
        assert document["host"]["cpu_count"] >= 1
        assert len(document["cells"]) == 2
        for cell in document["cells"]:
            assert cell["throughput_ips"] > 0

    def test_wrong_schema_rejected(self, document):
        bad = dict(document, schema="repro-bench/999")
        with pytest.raises(ReproError, match="schema"):
            validate_document(bad)

    def test_empty_cells_rejected(self, document):
        with pytest.raises(ReproError, match="non-empty"):
            validate_document(dict(document, cells=[]))

    def test_cell_missing_result_field_rejected(self, document):
        import copy

        bad = copy.deepcopy(document)
        del bad["cells"][0]["result"]["cycles"]
        with pytest.raises(ReproError, match="cycles"):
            validate_document(bad)

    def test_clean_document_has_no_breakers_key(self):
        """No field of the retired retry, heartbeat and circuit-breaker
        layers is written any more."""
        cell = Cell("compress", "conventional", 4, SMALL["compress"])
        [outcome] = run_cells([cell])
        doc = build_document("smoke", [outcome], jobs=1, total_seconds=0.1)
        validate_document(doc)
        assert "breakers" not in doc
        [cell] = doc["cells"]
        for retired in ("attempts", "attempt_seconds", "progress"):
            assert retired not in cell

    def test_not_a_document(self):
        with pytest.raises(ReproError):
            validate_document([])


def _doc(cells):
    return {"cells": cells}


def _cell(workload="compress", scheme="advanced", width=4, scale=None, **result):
    """A matchable cell whose ``result`` is a complete, loadable block;
    ``result`` keywords override top-level result fields."""
    doc = {
        "name": workload,
        "scheme": scheme,
        "machine": f"{width}-way",
        "checksum": 42,
        "dynamic_instructions": 2000,
        "offload_fraction": 0.125,
        "cycles": 1000,
        "ipc": 2.0,
        "static_instructions": 150,
        "partition_summary": {"nodes": 170, "fp_nodes": 20},
        "mix": {"total": 2000, "fp_executed": 250},
        "stats": {"cycles": 1000, "retired": 2000, "dcache_misses": 448},
        **result,
    }
    return {
        "workload": workload,
        "scheme": scheme,
        "width": width,
        "scale": scale,
        "result": doc,
    }


class TestCompare:
    def test_identical_documents_pass(self):
        report = compare_documents(_doc([_cell()]), _doc([_cell()]))
        assert report.ok and report.matched == 1 and not report.mismatches
        assert "verdict       : OK" in format_report(report)

    def test_stats_counter_drift_fails(self):
        drifted = _cell()
        drifted["result"]["stats"]["dcache_misses"] += 1
        report = compare_documents(_doc([drifted]), _doc([_cell()]))
        assert not report.ok
        assert report.mismatches == [
            "compress/advanced/4-way: stats.dcache_misses 448 -> 449"
        ]
        text = format_report(report)
        assert "MISMATCH      : compress/advanced/4-way: stats.dcache_misses" in text
        assert "verdict       : FAIL" in text

    def test_faster_cell_fails(self):
        report = compare_documents(_doc([_cell(cycles=500)]), _doc([_cell()]))
        assert not report.ok
        assert report.mismatches == ["compress/advanced/4-way: cycles 1000 -> 500"]

    def test_differing_float_fails(self):
        report = compare_documents(
            _doc([_cell(ipc=2.0000000000000004)]), _doc([_cell()])
        )
        assert not report.ok
        assert report.mismatches == [
            "compress/advanced/4-way: ipc 2.0 -> 2.0000000000000004"
        ]

    def test_checksum_mismatch_fails_regardless_of_cycles(self):
        report = compare_documents(
            _doc([_cell(checksum=43)]), _doc([_cell(checksum=42)])
        )
        assert not report.ok
        assert report.mismatches == ["compress/advanced/4-way: checksum 42 -> 43"]

    def test_retired_degraded_field_is_ignored(self, document):
        """Documents written while results carried a ``degraded`` flag
        still validate and compare equal to current ones."""
        import copy

        legacy = copy.deepcopy(document)
        for cell in legacy["cells"]:
            cell["result"]["degraded"] = False
        validate_document(legacy)
        assert "degraded" not in result_to_dict(
            result_from_dict(legacy["cells"][0]["result"])
        )
        for current, baseline in ((document, legacy), (legacy, document)):
            report = compare_documents(current, baseline)
            assert report.ok and report.matched == 2

    def test_cell_missing_from_current_fails(self):
        report = compare_documents(
            _doc([_cell()]), _doc([_cell(), _cell(scheme="basic")])
        )
        assert not report.ok
        assert report.missing_in_current == ["compress/basic/4-way"]

    def test_new_cell_in_current_is_fine(self):
        report = compare_documents(
            _doc([_cell(), _cell(scheme="basic")]), _doc([_cell()])
        )
        assert report.ok and report.missing_in_baseline == ["compress/basic/4-way"]
