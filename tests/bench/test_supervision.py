"""Harness supervision: the hard per-cell timeout and the document
fields the retired supervisor layers used to add.

Pool tests rely on Linux ``fork`` semantics: a ``monkeypatch`` of
``repro.bench.harness.compute_cell`` in the parent is inherited by the
workers, so slow cells can be scripted in the test itself.
"""

from __future__ import annotations

import time

from repro.bench import harness
from repro.bench.harness import run_cells
from repro.bench.matrix import Cell
from repro.bench.results import build_document, validate_document
from repro.progress import report_progress

from .conftest import SMALL

COMPRESS = Cell("compress", "conventional", 4, SMALL["compress"])
M88K = Cell("m88ksim", "conventional", 4, SMALL["m88ksim"])


def _beating_compute(cell):
    """~2.5s of scripted work reporting progress every 0.25s, then the
    real (fast) pipeline so a cell that is not killed has a result."""
    from repro.experiments.runner import run_benchmark

    start = time.perf_counter()
    for i in range(10):
        time.sleep(0.25)
        report_progress(executed=i + 1)
    result = run_benchmark(
        cell.workload, cell.scheme, width=cell.width, scale=cell.scale
    )
    return result, time.perf_counter() - start


class TestWatchdog:
    def test_timeout_kills_even_progressing_cells(self, monkeypatch):
        """``timeout`` is an absolute limit: a cell that keeps reporting
        progress is still killed when the limit passes (a progress-aware
        deadline would have let this 2.5s cell finish)."""
        monkeypatch.setattr(harness, "compute_cell", _beating_compute)
        outcomes = run_cells([COMPRESS, M88K], jobs=2, timeout=1.6)
        for o in outcomes:
            assert o.status == "timeout"
            assert o.error.type == "Timeout"
            assert "1.6s" in o.error.message
            assert o.result is None
            assert o.key not in harness._MEMO


class TestFailureProgressInDocuments:
    def test_clean_document_has_no_breakers_key(self):
        [outcome] = run_cells([COMPRESS])
        doc = build_document("smoke", [outcome], jobs=1, total_seconds=0.1)
        validate_document(doc)
        assert "breakers" not in doc
        [cell] = doc["cells"]
        for retired in ("attempts", "attempt_seconds", "progress"):
            assert retired not in cell
