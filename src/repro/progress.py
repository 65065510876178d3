"""Process-local progress reporting for long-running pipeline stages.

The bench harness supervises worker processes with a progress-aware
watchdog (see ``docs/robustness.md``): a cell that keeps making
progress has its deadline extended, a stalled one is killed early.  The
signal comes from here — pipeline code calls :func:`report_progress`
with whatever counters it has (pipeline ``stage`` transitions, dynamic
instructions ``executed`` by the interpreter, ``cycles``/``retired``
from the timing simulator), and whoever set a sink for this process
decides what to do with the fields.

With no sink installed — every direct library use — reporting is a
near-free no-op: one global read and a ``None`` check.  The bench pool
worker installs a :class:`~repro.bench.heartbeat.HeartbeatWriter` so
the supervising parent can watch the counters advance from outside the
process.
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


def progress_sink() -> ProgressSink | None:
    """The currently installed sink, if any."""
    return _SINK


def report_progress(**fields) -> None:
    """Forward progress counters to the installed sink (no-op without one).

    Callers on hot paths should rate-limit their own calls (e.g. every
    few thousand simulated cycles); sinks additionally throttle actual
    I/O by wall clock.
    """
    if _SINK is not None:
        _SINK.update(**fields)
