"""Parallel, cached execution of experiment-matrix cells.

Resolution order for each cell, keyed by
:func:`~repro.bench.cache.cell_key`:

1. the in-process memo, an :class:`~repro.ioutil.LRU` shared by every
   figure/table driver of one invocation,
2. the on-disk :class:`~repro.bench.cache.ResultCache` (if given),
3. fresh computation — inline for ``jobs <= 1``, otherwise fanned out
   over a :class:`concurrent.futures.ProcessPoolExecutor` — whose
   result goes to the memo and, best effort, to the disk cache: a
   cache that cannot be written costs the next run a recomputation,
   never this run a cell.

The memo and the result cache are the same two pieces of
:mod:`repro.ioutil` that the trace pool and trace store are built from.

Workers return plain dicts (the same serialization the cache stores),
so a parallel run, a serial run and a cache replay all yield
bit-identical result documents — the property the harness tests and
the CI baseline gate rely on.

Failure isolation (``docs/robustness.md``): one failing cell never
discards its siblings' work.  Every cell resolves to a
:class:`CellOutcome` whose ``status`` is ``ok`` or ``failed``; pipeline
exceptions are captured as a :class:`CellError` (type/stage/message)
instead of propagating out of ``run_cells``.  Cells are deterministic
and bounded by the interpreter's fuel and the simulator's cycle limit,
so a failure is recorded once and never retried — a retry would only
repeat it.  A worker process that dies breaks the pool, which fails
every cell not yet resolved as ``BrokenProcessPool``; rerunning the
sweep recomputes exactly those cells.

Callers that need raise-on-failure behaviour use
:meth:`CellOutcome.unwrap`.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

from repro.bench.cache import ResultCache, cell_key
from repro.bench.matrix import Cell
from repro.bench.results import result_from_dict, result_to_dict
from repro.errors import ReproError, error_stage
from repro.experiments.runner import SCHEMES, BenchmarkResult, run_benchmark
from repro.ioutil import LRU

#: One invocation resolves at most a few dozen cells, so the bound is
#: never reached in practice.
DEFAULT_MEMO_CAP = 512

#: key -> (result, fresh compute seconds); one process-wide memo.
_MEMO = LRU(DEFAULT_MEMO_CAP)

STATUS_OK = "ok"
STATUS_FAILED = "failed"


def clear_memo() -> None:
    """Drop the in-process memo (tests)."""
    _MEMO.clear()


@dataclass(frozen=True, slots=True)
class CellError:
    """What failed inside one cell, reduced to picklable strings.

    Attributes:
        type: Exception class name (``BrokenProcessPool`` when the
            worker process died before returning a result).
        stage: Pipeline stage the failure is attributed to.
        message: The exception text.
    """

    type: str
    stage: str
    message: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "CellError":
        return cls(type(exc).__name__, error_stage(exc), str(exc))

    def as_dict(self) -> dict:
        return {"type": self.type, "stage": self.stage, "message": self.message}

    @classmethod
    def from_dict(cls, doc: dict) -> "CellError":
        return cls(
            str(doc.get("type", "Exception")),
            str(doc.get("stage", "unknown")),
            str(doc.get("message", "")),
        )


@dataclass(eq=False, slots=True)
class CellOutcome:
    """One resolved cell.

    Attributes:
        cell: The matrix cell.
        result: The (possibly replayed) benchmark result; ``None`` when
            the cell did not resolve cleanly (``status != "ok"``).
        key: Content-address of the cell (cache key).
        cached: True when the result was replayed, not computed.
        source: ``"memo"``, ``"disk"``, ``"computed"`` or ``"none"``
            (failed).
        seconds: Wall-clock this invocation spent obtaining the cell
            (≈0 for replays).
        compute_seconds: Wall-clock of the original fresh computation.
        status: ``"ok"`` or ``"failed"``.
        error: Captured failure details when ``status != "ok"``.
    """

    cell: Cell
    result: BenchmarkResult | None
    key: str
    cached: bool
    source: str
    seconds: float
    compute_seconds: float
    status: str = STATUS_OK
    error: CellError | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def unwrap(self) -> BenchmarkResult:
        """The result, or a :class:`ReproError` re-raising the failure."""
        if self.ok and self.result is not None:
            return self.result
        error = self.error or CellError("Unknown", "unknown", "no result")
        raise ReproError(
            f"cell {self.cell.label} {self.status}: "
            f"[{error.type} at {error.stage}] {error.message}"
        )


def compute_cell(cell: Cell) -> tuple[BenchmarkResult, float]:
    """Run one cell's full pipeline; returns (result, seconds)."""
    start = time.perf_counter()
    result = run_benchmark(
        cell.workload, cell.scheme, width=cell.width, scale=cell.scale
    )
    return result, time.perf_counter() - start


def _pool_worker(cell_doc: dict) -> dict:
    """Process-pool entry point (must stay module-level picklable).

    Exceptions are captured into the returned payload rather than
    raised: a raised exception would have to survive pickling back to
    the parent, and the parent wants type/stage strings anyway.
    """
    try:
        result, seconds = compute_cell(Cell.from_dict(cell_doc))
    except Exception as exc:
        return {"ok": False, "error": CellError.from_exception(exc).as_dict()}
    return {"ok": True, "result": result_to_dict(result), "seconds": seconds}


def _decode_cache_entry(entry: dict) -> tuple[BenchmarkResult, float] | None:
    """Decode a disk entry defensively; ``None`` = treat as a miss.

    A corrupted entry (torn write survived the JSON parse, bit rot, a
    stale schema) must cost a recomputation, never a crash.
    """
    try:
        result = result_from_dict(entry["result"])
        compute_seconds = float(entry.get("compute_seconds", 0.0))
    except (ReproError, KeyError, TypeError, ValueError):
        return None
    return result, compute_seconds


def run_cells(
    cells: list[Cell],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    force: bool = False,
    progress: Callable[[CellOutcome], None] | None = None,
) -> list[CellOutcome]:
    """Resolve every cell; returns outcomes in input order (deduplicated).

    Never raises for a cell's failure — inspect ``CellOutcome.status``
    (or call ``unwrap()``) instead.

    Args:
        cells: Cells to run; duplicates are resolved once.
        jobs: Worker processes (<=1 runs inline in this process).
        cache: Optional on-disk cache consulted before computing and
            updated (atomically, best effort) after.
        force: Recompute even on a cache hit (the cache is rewritten).
        progress: Callback invoked as each cell resolves, in completion
            order.
    """
    ordered: list[tuple[Cell, str]] = []
    seen: set[str] = set()
    for cell in cells:
        key = cell_key(cell)
        if key not in seen:
            seen.add(key)
            ordered.append((cell, key))

    outcomes: dict[str, CellOutcome] = {}
    pending: list[tuple[Cell, str]] = []

    def _resolved(outcome: CellOutcome) -> None:
        outcomes[outcome.key] = outcome
        if progress is not None:
            progress(outcome)

    for cell, key in ordered:
        if not force:
            memoized = _MEMO.get(key)
            if memoized is not None:
                result, compute_seconds = memoized
                _resolved(
                    CellOutcome(cell, result, key, True, "memo", 0.0, compute_seconds)
                )
                continue
        if not force and cache is not None:
            start = time.perf_counter()
            entry = cache.get(key)
            decoded = _decode_cache_entry(entry) if entry is not None else None
            if decoded is not None:
                result, compute_seconds = decoded
                _MEMO.put(key, (result, compute_seconds))
                _resolved(
                    CellOutcome(
                        cell,
                        result,
                        key,
                        True,
                        "disk",
                        time.perf_counter() - start,
                        compute_seconds,
                    )
                )
                continue
        pending.append((cell, key))

    # All machine configs of one (workload, scheme, scale) share a packed
    # trace, so group them: the capture from the first config is still in
    # the replay pool (or freshly on disk) when its siblings run.  Schemes
    # run in SCHEMES order, so the advanced cell finds the conventional
    # run's profile there too.  Outcomes are returned in input order
    # regardless.
    pending.sort(
        key=lambda item: (
            item[0].workload,
            -1 if item[0].scale is None else item[0].scale,
            SCHEMES.index(item[0].scheme),
            item[0].width,
        )
    )

    def _computed(
        cell: Cell, key: str, result: BenchmarkResult, seconds: float
    ) -> None:
        _MEMO.put(key, (result, seconds))
        if cache is not None:
            cache.put(
                key,
                {
                    "cell": cell.as_dict(),
                    "result": result_to_dict(result),
                    "compute_seconds": seconds,
                },
            )
        _resolved(
            CellOutcome(cell, result, key, False, "computed", seconds, seconds)
        )

    def _failed(cell: Cell, key: str, status: str, error: CellError) -> None:
        _resolved(
            CellOutcome(cell, None, key, False, "none", 0.0, 0.0, status, error)
        )

    if pending and (jobs <= 1 or len(pending) == 1):
        # inline: no worker to lose
        for cell, key in pending:
            try:
                result, seconds = compute_cell(cell)
            except Exception as exc:
                _failed(cell, key, STATUS_FAILED, CellError.from_exception(exc))
            else:
                # normalize through the dict round trip so serial results
                # are representationally identical to pooled/cached ones
                _computed(
                    cell, key, result_from_dict(result_to_dict(result)), seconds
                )
    elif pending:
        # a worker that dies breaks the pool: every cell not yet resolved
        # fails as BrokenProcessPool, and a rerun recomputes those
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {}
            for cell, key in pending:
                try:
                    future = pool.submit(_pool_worker, cell.as_dict())
                except BrokenProcessPool as exc:
                    _failed(cell, key, STATUS_FAILED, _future_error(exc))
                else:
                    futures[future] = cell, key
            for future in as_completed(futures):
                cell, key = futures[future]
                try:
                    payload = future.result()
                except Exception as exc:
                    _failed(cell, key, STATUS_FAILED, _future_error(exc))
                    continue
                if payload["ok"]:
                    _computed(
                        cell, key, result_from_dict(payload["result"]),
                        payload["seconds"],
                    )
                else:
                    _failed(
                        cell, key, STATUS_FAILED,
                        CellError.from_dict(payload["error"]),
                    )

    return [outcomes[key] for _, key in ordered]


def _future_error(exc: Exception) -> CellError:
    """A pool future that raised: its worker died, or (rarely) its
    payload failed to unpickle — a cell-level failure either way."""
    if isinstance(exc, BrokenProcessPool):
        return CellError(type(exc).__name__, "worker", str(exc))
    return CellError.from_exception(exc)


def results_by_cell(outcomes: list[CellOutcome]) -> dict[Cell, BenchmarkResult]:
    """Convenience lookup table for the figure/table drivers.

    Raises on any failed outcome: the drivers need every cell, and a
    silent hole in the table would surface as a confusing ``KeyError``
    far from the cause.
    """
    return {outcome.cell: outcome.unwrap() for outcome in outcomes}
