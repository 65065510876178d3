"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the pipeline stage that failed.

Each class additionally carries

* an ``exit_code`` — the distinct, documented status the CLI exits with
  when the error escapes (see ``docs/robustness.md`` for the table), and
* a pipeline ``stage`` name — used by the fault-tolerant bench harness
  to record *where* a cell failed without keeping the exception object.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: CLI exit status when this error escapes ``python -m repro``.
    exit_code = 1
    #: Pipeline stage this error class is attributed to.
    stage = "unknown"


class IRError(ReproError):
    """Malformed intermediate representation (verifier failures, bad
    operands, unknown opcodes, duplicate labels, ...)."""

    exit_code = 12
    stage = "verify"


class ParseError(ReproError):
    """Syntax error while parsing IR assembly or MiniC source.

    Attributes:
        line: 1-based source line of the offending token, when known.
        column: 1-based source column, when known.
    """

    exit_code = 10
    stage = "compile"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class SemanticError(ReproError):
    """MiniC semantic-analysis failure (type errors, undeclared names,
    arity mismatches, ...)."""

    exit_code = 11
    stage = "compile"


class AnalysisError(ReproError):
    """A dataflow or graph analysis was asked something it cannot answer
    (e.g. dominators of an unreachable block)."""

    exit_code = 13
    stage = "analysis"


class PartitionError(ReproError):
    """A partitioning algorithm produced or was given an illegal state
    (e.g. an FPa node with an integer multiply, a violated partition
    condition)."""

    exit_code = 14
    stage = "partition"


class RegAllocError(ReproError):
    """Register allocation could not complete (e.g. more simultaneously
    live spill temporaries than reserved scratch registers)."""

    exit_code = 15
    stage = "regalloc"


class ExecutionError(ReproError):
    """Runtime failure inside the functional interpreter (unmapped memory,
    division by zero in the guest, fuel exhaustion, ...)."""

    exit_code = 16
    stage = "execute"


class FuelExhausted(ExecutionError):
    """The interpreter hit its dynamic-instruction budget.

    Used both as a safety net against non-terminating guest programs and,
    by some experiments, to cap simulated trace length deliberately.
    """

    exit_code = 17


class SimulationError(ReproError):
    """The timing simulator was misconfigured or reached an impossible
    microarchitectural state."""

    exit_code = 18
    stage = "simulate"


class WorkloadError(ReproError):
    """Unknown workload name or invalid workload scale parameters."""

    exit_code = 19
    stage = "compile"


class TracePackError(ReproError):
    """A packed trace could not be encoded or decoded (bad magic,
    checksum mismatch, unsupported format version, structural damage).

    The trace store treats this as a cache miss — the run falls back to
    re-interpretation — so it only escapes when callers use the pack
    codec directly.
    """

    exit_code = 21
    stage = "trace_pack"


class PerfDegradation(ReproError):
    """``repro perf check --gate-wall`` confirmed a statistical
    wall-time degradation against the per-branch history (see
    :mod:`repro.perf.detect`).

    Exit code 23 occurs only under ``--gate-wall``, and only when the
    detectors agree the change is a real regression, not noise — the
    message names the degraded cell(s), the magnitude and the
    change-point sha.
    """

    exit_code = 23
    stage = "perf"


class FuzzViolationError(ReproError):
    """``repro fuzz`` found programs violating the differential oracle
    (see :mod:`repro.gen.fuzz`): a checksum divergence between schemes,
    a lint error on a generated program, a failed §6.1 profit
    certification, or an advanced partition losing to basic beyond the
    copy-overhead bound.  The message lists every violating seed."""

    exit_code = 25
    stage = "fuzz"


class FaultInjected(ReproError):
    """A fault deliberately injected by :mod:`repro.faults`.

    Attributes:
        site: The fault-point name the injection fired at, when known.
    """

    exit_code = 20

    def __init__(self, message: str, site: str | None = None):
        super().__init__(message)
        self.site = site

    @property
    def stage(self) -> str:  # type: ignore[override]
        return self.site or "inject"


#: Documented CLI exit codes (``docs/robustness.md``).  Codes 0-2 are
#: conventional (success / generic error / argparse usage); 3 is reserved
#: for OS-level input failures and 4 for the ``repro bench``
#: ``--max-failures`` gate, both assigned by the CLI itself.  22 and 24
#: are retired (former checkpoint and daemon errors); never reuse them.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BENCH_FAILURES = 4
EXIT_PERF_DEGRADED = PerfDegradation.exit_code

EXIT_CODES: dict[str, int] = {
    "ReproError": ReproError.exit_code,
    "ParseError": ParseError.exit_code,
    "SemanticError": SemanticError.exit_code,
    "IRError": IRError.exit_code,
    "AnalysisError": AnalysisError.exit_code,
    "PartitionError": PartitionError.exit_code,
    "RegAllocError": RegAllocError.exit_code,
    "ExecutionError": ExecutionError.exit_code,
    "FuelExhausted": FuelExhausted.exit_code,
    "SimulationError": SimulationError.exit_code,
    "WorkloadError": WorkloadError.exit_code,
    "FaultInjected": FaultInjected.exit_code,
    "TracePackError": TracePackError.exit_code,
    "PerfDegradation": PerfDegradation.exit_code,
    "FuzzViolationError": FuzzViolationError.exit_code,
}


def exit_code_for(exc: BaseException) -> int:
    """The documented CLI exit status for ``exc`` (1 for non-repro errors)."""
    if isinstance(exc, ReproError):
        return type(exc).exit_code
    return EXIT_ERROR


def error_stage(exc: BaseException) -> str:
    """Best-effort pipeline stage attribution for a captured exception."""
    if isinstance(exc, FaultInjected):
        return exc.stage
    if isinstance(exc, ReproError):
        return type(exc).stage
    return "unknown"
