"""Parallel, cached execution of experiment-matrix cells.

Resolution order for each cell:

1. the in-process memo (shared by every figure/table driver of one
   invocation, replacing the old ``runner._CACHE``),
2. the on-disk :class:`~repro.bench.cache.ResultCache` (if given),
3. fresh computation — inline for ``jobs <= 1``, otherwise fanned out
   over a :class:`concurrent.futures.ProcessPoolExecutor`.

Workers return plain dicts (the same serialization the cache stores),
so a parallel run, a serial run and a cache replay all yield
bit-identical result documents — the property the harness tests and
the CI baseline gate rely on.

Failure isolation (``docs/robustness.md``): one misbehaving cell never
discards its siblings' work.  Every cell resolves to a
:class:`CellOutcome` whose ``status`` is ``ok``, ``failed`` or
``timeout``; pipeline exceptions are captured as a :class:`CellError`
(type/stage/message) instead of propagating out of ``run_cells``.
Cells are deterministic and bounded by the interpreter's fuel and the
simulator's cycle limit, so a failure is recorded once and never
retried — a retry would only repeat it.  The pool path adds the two
guards an inline run cannot give:

* a **hard** per-cell ``timeout``: a cell still running at the limit is
  killed and recorded ``timeout``; siblings interrupted by the pool
  teardown are resubmitted uncharged;
* **crash isolation**: a worker that dies outright breaks the pool.  A
  lone in-flight cell is charged the crash; with several suspects the
  harness requeues them all uncharged and drops to one worker, so the
  next crash names exactly one cell.

Callers that need raise-on-failure behaviour use
:meth:`CellOutcome.unwrap`.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

from repro.bench.cache import ResultCache, cell_key
from repro.bench.matrix import Cell
from repro.bench.results import result_from_dict, result_to_dict
from repro.errors import ReproError, error_stage
from repro.experiments.runner import SCHEMES, BenchmarkResult, run_benchmark

#: key -> (result, fresh compute seconds); one process-wide memo in LRU
#: order, bounded by :data:`DEFAULT_MEMO_CAP` (one invocation resolves at
#: most a few dozen cells, so the bound is never reached in practice).
_MEMO: OrderedDict[str, tuple[BenchmarkResult, float]] = OrderedDict()

DEFAULT_MEMO_CAP = 512

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


def _memo_get(key: str) -> tuple[BenchmarkResult, float] | None:
    value = _MEMO.get(key)
    if value is not None:
        _MEMO.move_to_end(key)
    return value


def _memo_put(key: str, value: tuple[BenchmarkResult, float]) -> None:
    _MEMO[key] = value
    _MEMO.move_to_end(key)
    while len(_MEMO) > DEFAULT_MEMO_CAP:
        _MEMO.popitem(last=False)


def clear_memo() -> None:
    """Drop the in-process memo (tests)."""
    _MEMO.clear()


@dataclass(frozen=True, slots=True)
class CellError:
    """What failed inside one cell, reduced to picklable strings.

    Attributes:
        type: Exception class name (or ``BrokenProcessPool``/``Timeout``
            for process-level failures the cell never got to raise).
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
        status: ``"ok"``, ``"failed"`` or ``"timeout"``.
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


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, terminating hung or wedged workers."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_cells(
    cells: list[Cell],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    force: bool = False,
    progress: Callable[[CellOutcome], None] | None = None,
    timeout: float | None = None,
) -> list[CellOutcome]:
    """Resolve every cell; returns outcomes in input order (deduplicated).

    Never raises for a cell's failure — inspect ``CellOutcome.status``
    (or call ``unwrap()``) instead.

    Args:
        cells: Cells to run; duplicates are resolved once.
        jobs: Worker processes (<=1 runs inline in this process, unless
            ``timeout`` is set, which requires the pool for isolation).
        cache: Optional on-disk cache consulted before computing and
            updated (atomically) after.
        force: Recompute even on a cache hit (the cache is rewritten).
        progress: Callback invoked as each cell resolves, in completion
            order.
        timeout: Hard per-cell wall-clock limit in seconds; a cell still
            running at the limit is killed and recorded ``timeout``.
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
            memoized = _memo_get(key)
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
                _memo_put(key, (result, compute_seconds))
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
        _memo_put(key, (result, seconds))
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

    if pending and timeout is None and (jobs <= 1 or len(pending) == 1):
        # inline: no worker to lose, and no way to kill a hung cell —
        # callers wanting those guarantees set ``timeout`` or ``jobs > 1``
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
        _run_pool(pending, jobs, timeout, _computed, _failed)

    return [outcomes[key] for _, key in ordered]


def _run_pool(
    pending: list[tuple[Cell, str]],
    jobs: int,
    timeout: float | None,
    _computed: Callable,
    _failed: Callable,
) -> None:
    """Fan out over a worker pool, surviving crashes and hung cells.

    Submission is throttled to the worker count so a task's submit time
    approximates its start time, which makes ``submit + timeout`` a
    meaningful per-cell deadline.
    """
    queue: deque[tuple[Cell, str]] = deque(pending)
    workers = max(1, min(jobs, len(pending)))
    pool: ProcessPoolExecutor | None = None
    # future -> (cell, key, deadline or None)
    inflight: dict[object, tuple[Cell, str, float | None]] = {}

    def _restart(interrupted: list[tuple[Cell, str, float | None]]) -> None:
        """Kill the pool and put ``interrupted`` cells back at the front
        of the queue, uncharged."""
        nonlocal pool
        inflight.clear()
        if pool is not None:
            _kill_pool(pool)
            pool = None
        queue.extendleft((cell, key) for cell, key, _ in reversed(interrupted))

    def _handle_break() -> None:
        """The pool died under us: every in-flight cell is a suspect.

        A ``BrokenProcessPool`` carries no attribution, so a cell is
        only charged the crash when it was the lone in-flight cell.
        Otherwise every suspect is requeued uncharged and the pool
        shrinks to one worker, where the next break names one cell.
        """
        nonlocal workers
        suspects = list(inflight.values())
        _restart(suspects if len(suspects) > 1 else [])
        if len(suspects) == 1:
            cell, key, _ = suspects[0]
            _failed(
                cell, key, STATUS_FAILED,
                CellError(
                    "BrokenProcessPool", "worker",
                    "worker process died before returning a result",
                ),
            )
        elif suspects:
            workers = 1

    clean_exit = False
    try:
        while queue or inflight:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
            while queue and len(inflight) < workers:
                cell, key = queue.popleft()
                try:
                    future = pool.submit(_pool_worker, cell.as_dict())
                except BrokenProcessPool:
                    queue.appendleft((cell, key))
                    _handle_break()
                    break
                deadline = None if timeout is None else time.monotonic() + timeout
                inflight[future] = (cell, key, deadline)
            if pool is None:
                continue  # pool broke during submission; respawn and retry

            deadlines = [d for _, _, d in inflight.values() if d is not None]
            wait_timeout = (
                max(0.0, min(deadlines) - time.monotonic()) + 0.01
                if deadlines
                else None
            )
            done, _ = wait(
                set(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED
            )

            broken = False
            for future in done:
                cell, key, deadline = inflight.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    broken = True
                    inflight[future] = (cell, key, deadline)
                    continue
                except Exception as exc:
                    # e.g. the payload failed to unpickle; a cell-level
                    # failure, not a pool-level one
                    payload = {
                        "ok": False,
                        "error": CellError.from_exception(exc).as_dict(),
                    }
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
            if broken:
                _handle_break()
                continue

            now = time.monotonic()
            expired = [
                future
                for future, (_, _, deadline) in inflight.items()
                if deadline is not None and now >= deadline
            ]
            if expired:
                for future in expired:
                    cell, key, _ = inflight.pop(future)
                    _failed(
                        cell, key, STATUS_TIMEOUT,
                        CellError(
                            "Timeout", "worker",
                            f"cell exceeded the {timeout:g}s per-cell timeout",
                        ),
                    )
                # the hung workers still occupy pool slots: kill the pool
                # and resubmit the interrupted (innocent) cells uncharged
                _restart(list(inflight.values()))
        clean_exit = True
    finally:
        if pool is not None:
            if clean_exit:
                pool.shutdown(wait=True, cancel_futures=True)
            else:
                # abnormal exit (KeyboardInterrupt, internal error):
                # waiting on possibly-hung workers would wedge shutdown
                _kill_pool(pool)


def results_by_cell(outcomes: list[CellOutcome]) -> dict[Cell, BenchmarkResult]:
    """Convenience lookup table for the figure/table drivers.

    Raises on any failed outcome: the drivers need every cell, and a
    silent hole in the table would surface as a confusing ``KeyError``
    far from the cause.
    """
    return {outcome.cell: outcome.unwrap() for outcome in outcomes}
