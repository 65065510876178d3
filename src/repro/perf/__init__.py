"""Per-branch wall-time history and statistical degradation detection.

The package behind ``repro perf``: an append-only JSONL store of
validated benchmark documents (:mod:`repro.perf.history`), a
change-point/drift/spike detection engine with data-derived thresholds
over each cell's wall time (:mod:`repro.perf.detect`), and the
``repro-perf/1`` verdict document (:mod:`repro.perf.report`).  The
deterministic result fields (cycles, checksums, counters) are not
judged here: ``repro bench --baseline`` compares them exactly.
"""

from repro.perf.detect import (
    CellVerdict,
    DetectorConfig,
    PerfReport,
    best_model,
    check_history,
    judge_series,
    noise_floor,
)
from repro.perf.history import (
    HISTORY_SCHEMA,
    HistoryEntry,
    PerfHistory,
    default_history_path,
)
from repro.perf.report import (
    PERF_SCHEMA,
    build_verdict_document,
    render_text_report,
    validate_verdict_document,
)

__all__ = [
    "CellVerdict",
    "DetectorConfig",
    "HISTORY_SCHEMA",
    "HistoryEntry",
    "PERF_SCHEMA",
    "PerfHistory",
    "PerfReport",
    "best_model",
    "build_verdict_document",
    "check_history",
    "default_history_path",
    "judge_series",
    "noise_floor",
    "render_text_report",
    "validate_verdict_document",
]
