"""Serialization of benchmark results and the BENCH JSON document.

``BENCH_<suite>.json`` is the machine-readable trajectory artifact CI
uploads and gates on.  Layout (schema ``repro-bench/1``)::

    {
      "schema": "repro-bench/1",
      "suite": "fig8",
      "created_unix": 1754000000.0,
      "code_version": "<sha256 of the repro sources>",
      "host": {"platform": ..., "python": ..., "cpu_count": ...},
      "jobs": 4,
      "total_seconds": 12.3,
      "cache": {"dir": ..., "hits": 12, "misses": 2, "hit_rate": 0.857},
      "cells": [
        {
          "workload": "compress", "scheme": "advanced",
          "width": 4, "scale": null,
          "key": "<cache key>", "cached": false, "source": "computed",
          "status": "ok",
          "seconds": 1.9,            # time this run spent on the cell
          "compute_seconds": 1.9,    # fresh pipeline time (from cache)
          "throughput_ips": 130000.0,  # simulated instructions / compute s
          "result": { ...BenchmarkResult... }
        }, ...
      ],
      "failures": [                  # cells that did not resolve cleanly
        {
          "workload": "m88ksim", "scheme": "advanced",
          "width": 4, "scale": null,
          "key": "<cache key>", "cached": false, "source": "none",
          "status": "failed",        # "timeout" in older documents
          "seconds": 0.0, "compute_seconds": 0.0,
          "error": {"type": "PartitionError", "stage": "partition",
                    "message": "..."}
        }, ...
      ]
    }

Every field of ``result`` is produced by the deterministic pipeline,
so two documents for the same code version must agree cell for cell,
field for field — that is what the CI baseline gate checks.  ``cells`` holds
only clean results; a failed cell moves to ``failures`` (with the
captured error instead of a result) so a partial run still yields a
valid, gateable document.

Documents written before the sweep supervisor was simplified may also
carry ``attempts``, ``attempt_seconds`` and ``progress`` per cell and a
top-level ``breakers`` block.  Nothing reads those fields any more, and
the validator ignores them, so older documents (and the perf histories
holding them) still load.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro.bench.matrix import cell_label  # noqa: F401 (re-exported)
from repro.errors import ReproError
from repro.ioutil import code_fingerprint, content_key
from repro.experiments.runner import BenchmarkResult
from repro.sim.stats import SimStats

#: Document schema identifier; bump on incompatible layout changes.
BENCH_SCHEMA = "repro-bench/1"

_RESULT_FIELDS = (
    "name",
    "scheme",
    "machine",
    "checksum",
    "dynamic_instructions",
    "offload_fraction",
    "cycles",
    "ipc",
    "static_instructions",
)


def result_to_dict(result: BenchmarkResult) -> dict:
    """Lossless, JSON-able form of a :class:`BenchmarkResult`."""
    doc = {field: getattr(result, field) for field in _RESULT_FIELDS}
    doc["partition_summary"] = dict(result.partition_summary)
    doc["mix"] = dict(result.mix)
    doc["stats"] = result.stats.to_counters()
    return doc


def result_from_dict(doc: dict) -> BenchmarkResult:
    """Inverse of :func:`result_to_dict`.

    Unknown keys are ignored, so documents that still carry the retired
    ``degraded`` flag load.
    """
    try:
        return BenchmarkResult(
            stats=SimStats.from_counters(doc["stats"]),
            partition_summary=dict(doc["partition_summary"]),
            mix=dict(doc["mix"]),
            **{field: doc[field] for field in _RESULT_FIELDS},
        )
    except KeyError as exc:
        raise ReproError(f"malformed benchmark result: missing {exc}") from None


#: Host-identity fields the fingerprint is computed over, in order.
_HOST_FIELDS = ("platform", "machine", "python", "cpu_count")


def host_fingerprint(host: dict | None = None) -> str:
    """Stable identity hash of the machine a document was produced on.

    Wall-clock series are only comparable between runs on the same kind
    of host, so the perf-history detectors partition wall-time data by
    this fingerprint.  Accepts the ``host`` block of an existing BENCH
    document (older documents lack the stored ``fingerprint`` field and
    get it recomputed from the identity fields)."""
    base = {field: (host or host_info()).get(field) for field in _HOST_FIELDS}
    return content_key(base)


def host_info() -> dict:
    info = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    info["fingerprint"] = host_fingerprint(info)
    return info


def outcome_cell_doc(outcome) -> dict:
    """JSON form of one :class:`~repro.bench.harness.CellOutcome` —
    the ``cells``/``failures`` entry layout."""
    doc = {
        **outcome.cell.as_dict(),
        "key": outcome.key,
        "cached": outcome.cached,
        "source": outcome.source,
        "status": outcome.status,
        "seconds": outcome.seconds,
        "compute_seconds": outcome.compute_seconds,
    }
    if outcome.ok and outcome.result is not None:
        compute = outcome.compute_seconds
        doc["throughput_ips"] = (
            outcome.result.dynamic_instructions / compute if compute > 0 else 0.0
        )
        doc["result"] = result_to_dict(outcome.result)
    else:
        error = outcome.error
        doc["error"] = (
            error.as_dict()
            if error is not None
            else {"type": "Unknown", "stage": "unknown", "message": ""}
        )
    return doc


def build_document(
    suite: str,
    outcomes,
    *,
    jobs: int,
    total_seconds: float,
    cache_stats: dict | None = None,
) -> dict:
    """Assemble the BENCH document from harness outcomes.

    Failed outcomes land in ``failures`` instead of ``cells``, so every
    surviving cell is byte-identical to what a fault-free run of the
    same code version would have produced.
    """
    cells = [outcome_cell_doc(o) for o in outcomes if o.ok]
    failures = [outcome_cell_doc(o) for o in outcomes if not o.ok]
    hits = sum(1 for o in outcomes if o.cached)
    total = len(cells) + len(failures)
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "created_unix": time.time(),
        "code_version": code_fingerprint(),
        "host": host_info(),
        "jobs": jobs,
        "total_seconds": total_seconds,
        "cache": cache_stats
        or {
            "dir": None,
            "hits": hits,
            "misses": total - hits,
            "hit_rate": hits / total if total else 0.0,
        },
        "cells": cells,
        "failures": failures,
    }


_TOP_LEVEL_REQUIRED = (
    "schema",
    "suite",
    "created_unix",
    "code_version",
    "host",
    "jobs",
    "total_seconds",
    "cache",
    "cells",
)

_CELL_REQUIRED = (
    "workload",
    "scheme",
    "width",
    "key",
    "cached",
    "seconds",
    "compute_seconds",
    "throughput_ips",
    "result",
)

_RESULT_REQUIRED = _RESULT_FIELDS + ("partition_summary", "mix", "stats")

_FAILURE_REQUIRED = ("workload", "scheme", "width", "key", "status", "error")

#: ``timeout`` came from the retired per-cell limit; old documents keep it.
_FAILURE_STATUSES = ("failed", "timeout")


def validate_document(doc: dict) -> None:
    """Raise :class:`ReproError` listing every schema violation.

    ``failures`` is optional (documents predating fault tolerance lack
    it) but validated when present; ``cells`` may be empty only when
    every cell of the run failed.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ReproError("bench document must be a JSON object")
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
    for field in _TOP_LEVEL_REQUIRED:
        if field not in doc:
            problems.append(f"missing top-level field {field!r}")
    failures = doc.get("failures", [])
    if not isinstance(failures, list):
        problems.append("failures must be a list")
        failures = []
    cells = doc.get("cells")
    if not isinstance(cells, list) or (not cells and not failures):
        problems.append("cells must be a non-empty list")
        cells = cells if isinstance(cells, list) else []
    for index, cell in enumerate(cells):
        where = f"cells[{index}]"
        if not isinstance(cell, dict):
            problems.append(f"{where} must be an object")
            continue
        for field in _CELL_REQUIRED:
            if field not in cell:
                problems.append(f"{where} missing {field!r}")
        if cell.get("status", "ok") != "ok":
            problems.append(f"{where}.status must be 'ok', not {cell.get('status')!r}")
        result = cell.get("result")
        if not isinstance(result, dict):
            problems.append(f"{where}.result must be an object")
            continue
        for field in _RESULT_REQUIRED:
            if field not in result:
                problems.append(f"{where}.result missing {field!r}")
        if isinstance(result.get("cycles"), (int, float)) and result["cycles"] <= 0:
            problems.append(f"{where}.result.cycles must be positive")
    for index, failure in enumerate(failures):
        where = f"failures[{index}]"
        if not isinstance(failure, dict):
            problems.append(f"{where} must be an object")
            continue
        for field in _FAILURE_REQUIRED:
            if field not in failure:
                problems.append(f"{where} missing {field!r}")
        if failure.get("status") not in _FAILURE_STATUSES:
            problems.append(
                f"{where}.status must be one of {_FAILURE_STATUSES}, "
                f"not {failure.get('status')!r}"
            )
        error = failure.get("error")
        if error is not None and not isinstance(error, dict):
            problems.append(f"{where}.error must be an object")
    if problems:
        raise ReproError(
            "invalid bench document:\n  " + "\n  ".join(problems)
        )


def load_document(path: str | os.PathLike) -> dict:
    """Read and parse a BENCH JSON file (no validation)."""
    try:
        with open(Path(path), encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read bench document {path}: {exc}") from None


def save_document(doc: dict, path: str | os.PathLike) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
