"""Shared fixtures for the bench-harness tests.

Every test starts with an empty in-process memo so cache/memo hit
assertions are about *this* test's actions, not a previous test's.
The helpers below script a failing cell (a raising stage, a dying
worker) with ``monkeypatch``.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import harness
from repro.bench.harness import clear_memo
from repro.trace.store import clear_trace_pool


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    clear_trace_pool()
    yield
    clear_memo()
    clear_trace_pool()


#: Small, fast cells used throughout these tests (sub-second each).
SMALL = {"compress": 150, "m88ksim": 2}

#: The unpatched pipeline, for scripted cells that wrap it.
REAL_COMPUTE = harness.compute_cell


def script_cells(monkeypatch, workload, compute):
    """Resolve ``workload``'s cells with ``compute(cell)`` instead of the
    pipeline; every other cell computes normally.  The bench pool forks,
    so the patch reaches its workers too."""
    monkeypatch.setattr(
        harness,
        "compute_cell",
        lambda cell: (compute if cell.workload == workload else REAL_COMPUTE)(cell),
    )


def under_patch(obj, name, value):
    """A scripted cell: the real pipeline with ``obj.name`` replaced."""

    def compute(cell):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(obj, name, value)
            return REAL_COMPUTE(cell)

    return compute


def crash(cell):
    """A scripted cell whose worker process dies."""
    os._exit(13)
