"""Benchmark harness: the experiment matrix, parallel execution, and a
content-addressed result cache.

The paper's evaluation is a matrix — workload × machine config ×
partitioning scheme (Figures 8–10, Tables 1–2).  Every cell of that
matrix is an independent, deterministic pipeline run
(compile → partition → simulate), which makes the whole sweep trivially
parallel and perfectly cacheable:

* :mod:`repro.bench.matrix` names the cells and the standard suites
  (``fig8``, ``fig9``, ``fig10``, ``fp``, ``all``, ``smoke``).
* :mod:`repro.bench.cache` is a content-addressed on-disk cache keyed
  on workload source + partition options + machine config + code
  version, with atomic (tmp-file + rename) writes so parallel workers
  and interrupted runs cannot corrupt it.
* :mod:`repro.bench.harness` fans cells out over a
  :class:`concurrent.futures.ProcessPoolExecutor` and replays cached
  cells instantly.
* :mod:`repro.bench.results` serializes results and builds the
  versioned, machine-readable ``BENCH_<suite>.json`` documents.
* :mod:`repro.bench.compare` gates a fresh document against a
  committed baseline with a slowdown tolerance (the CI perf gate).

Command line::

    python -m repro bench --suite fig8 --jobs 4 -o BENCH_fig8.json \
        --baseline benchmarks/baseline.json
"""

from repro.bench.cache import ResultCache, cell_key, code_fingerprint
from repro.bench.compare import compare_documents, format_report
from repro.bench.harness import CellOutcome, clear_memo, run_cells
from repro.bench.matrix import SUITES, Cell, suite_cells
from repro.bench.results import (
    BENCH_SCHEMA,
    build_document,
    result_from_dict,
    result_to_dict,
    validate_document,
)

__all__ = [
    "BENCH_SCHEMA",
    "Cell",
    "CellOutcome",
    "ResultCache",
    "SUITES",
    "build_document",
    "cell_key",
    "clear_memo",
    "code_fingerprint",
    "compare_documents",
    "format_report",
    "result_from_dict",
    "result_to_dict",
    "run_cells",
    "suite_cells",
    "validate_document",
]
