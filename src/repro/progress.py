"""Process-local progress reporting for pipeline stage transitions.

:func:`run_benchmark <repro.experiments.runner.run_benchmark>` marks
each stage it enters (``stage="prepare"``, ``"execute"``,
``"simulate"``) with :func:`report_progress`, and whoever installed a
sink for this process decides what to do with the fields — e.g. time
each stage of a cell.

With no sink installed — the default everywhere, including the bench
harness — reporting is a near-free no-op: one global read and a
``None`` check.  A cell replayed from a pooled or stored trace skips
straight to ``simulate``.
"""

from __future__ import annotations

from typing import Protocol


class ProgressSink(Protocol):
    def update(self, **fields) -> None: ...


_SINK: ProgressSink | None = None


def set_progress_sink(sink: ProgressSink | None) -> None:
    """Install (or with ``None`` remove) this process's progress sink."""
    global _SINK
    _SINK = sink


def report_progress(**fields) -> None:
    """Forward progress fields to the installed sink (no-op without one)."""
    if _SINK is not None:
        _SINK.update(**fields)
