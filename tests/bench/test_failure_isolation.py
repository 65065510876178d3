"""Failure isolation in the bench harness, one test per failure class.

Each test scripts one failure with ``monkeypatch`` — a pipeline stage
that raises, a worker that dies, a torn cache entry — and asserts what
it costs: a raising stage or a torn entry costs only its own cell,
siblings finish with results identical to a clean run, and a failed
cell carries a usable error record.  A dead worker breaks the whole
pool, so it may also fail siblings not yet resolved; a rerun recomputes
exactly the failed cells.

The crash test needs ``jobs >= 2`` so the harness takes the
process-pool path (an in-process crash would take pytest down with it).
The pool forks, so a patch made in the parent reaches the workers.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.bench import harness
from repro.bench.cache import ResultCache
from repro.bench.harness import clear_memo, run_cells
from repro.bench.matrix import Cell
from repro.bench.results import result_to_dict
from repro.errors import ExecutionError, PartitionError, ReproError, SimulationError
from repro.experiments import runner
from repro.trace.store import clear_trace_pool

from .conftest import SMALL, crash, script_cells, under_patch


def small_cells(*specs) -> list[Cell]:
    """``("compress", "basic")``-style specs -> smoke-scale cells."""
    return [Cell(name, scheme, 4, SMALL[name]) for name, scheme in specs]


def clean_results(cells) -> dict[str, dict]:
    """key -> result dict for ``cells``, computed with nothing scripted;
    leaves no memo or pooled trace behind, so the cells compute again."""
    outcomes = run_cells(cells)
    clear_memo()
    clear_trace_pool()
    return {o.key: result_to_dict(o.unwrap()) for o in outcomes}


def fail_execution(*args, **kwargs):
    raise ExecutionError("scripted")


class TestPipelineError:
    @pytest.mark.parametrize(
        "target, error, stage",
        [
            ("partition_program", PartitionError, "partition"),
            ("run_program", ExecutionError, "execute"),
            ("TimingSimulator", SimulationError, "simulate"),
        ],
    )
    def test_error_is_recorded_once_and_isolated(
        self, monkeypatch, target, error, stage
    ):
        cells = small_cells(("compress", "basic"), ("m88ksim", "basic"))
        expected = clean_results(cells)
        calls = []

        def raising(*args, **kwargs):
            calls.append(target)
            raise error("scripted")

        script_cells(monkeypatch, "m88ksim", under_patch(runner, target, raising))
        good, bad = run_cells(cells)  # must not raise

        assert good.ok and result_to_dict(good.result) == expected[good.key]
        assert bad.status == "failed" and bad.result is None
        assert bad.error.type == error.__name__
        assert bad.error.stage == stage
        assert calls == [target]  # a deterministic cell is never retried
        with pytest.raises(ReproError, match="m88ksim.*failed"):
            bad.unwrap()

    def test_partition_error_propagates_from_the_runner(self, monkeypatch):
        """The advanced scheme has no fallback: its failure is the cell's."""

        def raising(*args, **kwargs):
            raise PartitionError("scripted")

        monkeypatch.setattr(runner, "partition_program", raising)
        with pytest.raises(PartitionError):
            runner.run_benchmark("compress", "advanced", scale=SMALL["compress"])

    def test_rerun_recomputes_only_the_failed_cell(self, monkeypatch, tmp_path):
        cells = small_cells(("compress", "conventional"), ("m88ksim", "conventional"))
        expected = clean_results(cells)
        cache = ResultCache(tmp_path / "cache")
        with monkeypatch.context() as patch:
            script_cells(
                patch, "m88ksim", under_patch(runner, "run_program", fail_execution)
            )
            _, failed = run_cells(cells, cache=cache)
        assert failed.status == "failed"

        clear_memo()
        outcomes = run_cells(cells, cache=cache)
        assert [o.source for o in outcomes] == ["disk", "computed"]
        assert {o.key: result_to_dict(o.result) for o in outcomes} == expected


class TestWorkerCrash:
    def test_dead_worker_fails_only_unresolved_cells(self, monkeypatch, tmp_path):
        """Whatever the scheduling: every crashing cell fails as
        ``BrokenProcessPool``, a sibling either finished cleanly or fell
        with the pool, nothing failed is kept, and a rerun recomputes
        exactly the failed cells."""
        cells = small_cells(
            ("compress", "conventional"),
            ("compress", "basic"),
            ("m88ksim", "conventional"),
            ("m88ksim", "basic"),
        )
        expected = clean_results(cells)
        cache = ResultCache(tmp_path / "cache")
        with monkeypatch.context() as patch:
            script_cells(patch, "m88ksim", crash)
            outcomes = run_cells(cells, jobs=2, cache=cache)

        for outcome in outcomes:
            if outcome.ok:
                assert outcome.cell.workload != "m88ksim"
                assert result_to_dict(outcome.result) == expected[outcome.key]
                continue
            assert outcome.status == "failed" and outcome.result is None
            assert outcome.error.type == "BrokenProcessPool"
            assert outcome.error.stage == "worker"
            assert outcome.key not in harness._MEMO
            assert cache.get(outcome.key) is None

        clear_memo()
        rerun = run_cells(cells, cache=cache)
        assert [o.source for o in rerun] == [
            "disk" if o.ok else "computed" for o in outcomes
        ]
        assert {o.key: result_to_dict(o.result) for o in rerun} == expected

    def test_pool_broken_at_submission_fails_the_cell(self, monkeypatch):
        """A pool that broke while cells were still being submitted
        refuses the rest; those cells fail too, and nothing raises."""

        class BreaksAtM88k(ProcessPoolExecutor):
            def submit(self, fn, cell_doc):
                if cell_doc["workload"] == "m88ksim":
                    raise BrokenProcessPool("scripted")
                return super().submit(fn, cell_doc)

        cells = small_cells(("compress", "conventional"), ("m88ksim", "conventional"))
        expected = clean_results(cells)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", BreaksAtM88k)
        good, bad = run_cells(cells, jobs=2)
        assert good.ok and result_to_dict(good.result) == expected[good.key]
        assert bad.status == "failed"
        assert (bad.error.type, bad.error.stage) == ("BrokenProcessPool", "worker")


class TestTornCacheEntry:
    def test_torn_entry_costs_a_recompute_never_a_crash(self, tmp_path):
        [cell] = small_cells(("compress", "basic"))
        cache = ResultCache(tmp_path / "cache")
        [first] = run_cells([cell], cache=cache)
        assert first.source == "computed"
        clear_memo()

        # a valid envelope around a payload that is not a result
        cache.put(first.key, {"result": {"__torn__": True}})
        [second] = run_cells([cell], cache=cache)
        assert second.ok
        assert second.cached is False and second.source == "computed"
        assert result_to_dict(second.result) == result_to_dict(first.result)
        # the recompute rewrote the entry
        assert cache.get(first.key)["result"] == result_to_dict(first.result)
