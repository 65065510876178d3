"""Fabricated, schema-valid BENCH documents for the perf-history tests.

Running the real pipeline for a 50-run synthetic history would dwarf
the suite's runtime; these helpers build ``repro-bench/1`` documents
directly (they pass :func:`repro.bench.results.validate_document`)
with exactly the fields the detectors read — per-cell cycles, wall
times, host identity and repeat data.
"""

from __future__ import annotations

import pytest

from repro.bench.results import host_fingerprint, validate_document
from repro.perf.history import HistoryEntry

TEST_HOST = {
    "platform": "test-linux",
    "machine": "riscv128",
    "python": "3.12.0",
    "cpu_count": 4,
}


def make_result(workload: str, scheme: str, width: int, cycles: int) -> dict:
    instructions = 100_000
    return {
        "name": workload,
        "scheme": scheme,
        "machine": f"{width}-way",
        "checksum": 1_234_567,
        "dynamic_instructions": instructions,
        "offload_fraction": 0.12,
        "cycles": cycles,
        "ipc": instructions / cycles,
        "static_instructions": 150,
        "partition_summary": {"nodes": 170, "fp_nodes": 20},
        "mix": {"total": instructions, "fp_executed": 12_000},
        "stats": {"cycles": cycles, "retired": instructions},
    }


def make_cell(
    workload: str = "compress",
    scheme: str = "advanced",
    width: int = 4,
    cycles: int = 50_000,
    *,
    wall: float = 1.0,
    cached: bool = False,
) -> dict:
    return {
        "workload": workload,
        "scheme": scheme,
        "width": width,
        "scale": None,
        "key": f"{workload}-{scheme}-{width}",
        "cached": cached,
        "source": "cache" if cached else "computed",
        "status": "ok",
        "seconds": 0.0 if cached else wall,
        "compute_seconds": wall,
        "throughput_ips": 100_000 / wall,
        "result": make_result(workload, scheme, width, cycles),
    }


def make_document(
    cells: list[dict],
    *,
    suite: str = "fig8",
    code_version: str = "codev-1",
    created: float = 1_754_000_000.0,
    host: dict | None = None,
) -> dict:
    host = dict(host or TEST_HOST)
    host["fingerprint"] = host_fingerprint(host)
    doc = {
        "schema": "repro-bench/1",
        "suite": suite,
        "created_unix": created,
        "code_version": code_version,
        "host": host,
        "jobs": 1,
        "total_seconds": sum(c["seconds"] for c in cells),
        "cache": {"dir": None, "hits": 0, "misses": len(cells),
                  "hit_rate": 0.0},
        "cells": cells,
        "failures": [],
    }
    validate_document(doc)
    return doc


def make_entry(
    cells: list[dict],
    *,
    sha: str,
    suite: str = "fig8",
    branch: str = "main",
    code_version: str = "codev-1",
    created: float = 1_754_000_000.0,
    host: dict | None = None,
) -> HistoryEntry:
    document = make_document(
        cells, suite=suite, code_version=code_version, created=created,
        host=host,
    )
    return HistoryEntry.from_document(document, sha=sha, branch=branch)


def series_entries(
    cycle_values: list[int],
    *,
    suite: str = "fig8",
    workload: str = "compress",
    wall_values: list[float] | None = None,
) -> list[HistoryEntry]:
    """One history entry per value: a single-cell suite whose cycle
    count follows ``cycle_values`` run by run (each run its own sha and
    code version, like real commits)."""
    entries = []
    for index, cycles in enumerate(cycle_values):
        wall = wall_values[index] if wall_values else 1.0
        entries.append(
            make_entry(
                [make_cell(workload=workload, cycles=cycles, wall=wall)],
                sha=f"sha{index:04d}" + "0" * 32,
                suite=suite,
                code_version=f"codev-{index}",
                created=1_754_000_000.0 + 3600.0 * index,
            )
        )
    return entries


@pytest.fixture
def history_path(tmp_path):
    return tmp_path / "main.jsonl"
