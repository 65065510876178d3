"""Harness: memo/disk resolution, fan-out, and serial≡parallel equality."""

from __future__ import annotations

import pytest

from repro.bench.cache import ResultCache
from repro.bench.harness import clear_memo, results_by_cell, run_cells
from repro.bench.matrix import Cell
from repro.bench.results import result_to_dict
from repro.progress import set_progress_sink

from .conftest import SMALL

CELLS = [
    Cell(name, scheme, 4, scale)
    for name, scale in SMALL.items()
    for scheme in ("conventional", "advanced")
]


def as_dicts(outcomes):
    return {o.cell: result_to_dict(o.result) for o in outcomes}


class TestResolution:
    def test_first_run_computes(self):
        [outcome] = run_cells([CELLS[0]])
        assert outcome.source == "computed" and not outcome.cached
        assert outcome.seconds > 0
        assert outcome.compute_seconds == outcome.seconds
        assert outcome.result.cycles > 0

    def test_second_run_hits_memo(self):
        run_cells([CELLS[0]])
        [outcome] = run_cells([CELLS[0]])
        assert outcome.source == "memo" and outcome.cached
        assert outcome.compute_seconds > 0  # original pipeline time kept

    def test_disk_hit_after_memo_cleared(self, tmp_path):
        cache = ResultCache(tmp_path)
        [fresh] = run_cells([CELLS[0]], cache=cache)
        clear_memo()
        [replayed] = run_cells([CELLS[0]], cache=cache)
        assert replayed.source == "disk" and replayed.cached
        assert result_to_dict(replayed.result) == result_to_dict(fresh.result)
        assert replayed.compute_seconds == pytest.approx(fresh.compute_seconds)

    def test_warm_cache_hit_rate_is_total(self, tmp_path):
        """Acceptance bar: a warm-cache rerun replays >90% of cells."""
        cache = ResultCache(tmp_path)
        run_cells(CELLS, cache=cache)
        clear_memo()
        rerun_cache = ResultCache(tmp_path)
        outcomes = run_cells(CELLS, cache=rerun_cache)
        assert all(o.cached for o in outcomes)
        assert rerun_cache.stats()["hit_rate"] > 0.9

    def test_force_recomputes_and_rewrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        [first] = run_cells([CELLS[0]], cache=cache)
        [forced] = run_cells([CELLS[0]], cache=cache, force=True)
        assert forced.source == "computed" and not forced.cached
        assert result_to_dict(forced.result) == result_to_dict(first.result)

    def test_duplicate_cells_resolved_once(self):
        outcomes = run_cells([CELLS[0], CELLS[0], CELLS[0]])
        assert len(outcomes) == 1

    def test_progress_callback_sees_every_cell(self):
        seen = []
        run_cells(CELLS[:2], progress=lambda o: seen.append(o.cell))
        assert sorted(seen, key=str) == sorted(CELLS[:2], key=str)


class StageSink:
    """A progress sink that records the ``stage`` of every update."""

    def __init__(self):
        self.stages = []

    def update(self, **fields):
        self.stages.append(fields.get("stage"))


class TestProgressSink:
    def test_sink_sees_cold_stages_then_replay_only_simulates(self):
        sink = StageSink()
        set_progress_sink(sink)
        try:
            run_cells([CELLS[0]])
            assert sink.stages == ["prepare", "execute", "simulate"]

            # memo cleared, pooled trace kept: the cell replays the trace
            sink.stages.clear()
            clear_memo()
            [outcome] = run_cells([CELLS[0]])
            assert outcome.source == "computed"
            assert sink.stages == ["simulate"]
        finally:
            set_progress_sink(None)


class TestMemoBound:
    def test_memo_is_lru_bounded(self, monkeypatch):
        """The process-wide memo evicts least-recently-used entries at
        the ``DEFAULT_MEMO_CAP`` bound instead of growing forever."""
        from repro.bench import harness

        assert harness._MEMO.cap == harness.DEFAULT_MEMO_CAP
        monkeypatch.setattr(harness._MEMO, "cap", 2)
        fake = object()
        harness._MEMO.put("a", (fake, 0.1))
        harness._MEMO.put("b", (fake, 0.1))
        assert harness._MEMO.get("a") is not None  # touch: a is now MRU
        harness._MEMO.put("c", (fake, 0.1))
        assert len(harness._MEMO) == 2
        assert harness._MEMO.get("b") is None  # LRU entry evicted
        assert harness._MEMO.get("a") is not None
        assert harness._MEMO.get("c") is not None


class TestParallel:
    def test_parallel_equals_serial(self):
        """The acceptance criterion: fanning out over worker processes
        changes wall-clock, never results."""
        serial = as_dicts(run_cells(CELLS, jobs=1))
        clear_memo()
        parallel = as_dicts(run_cells(CELLS, jobs=2))
        assert serial == parallel

    def test_parallel_populates_shared_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cells(CELLS, jobs=2, cache=cache)
        clear_memo()
        outcomes = run_cells(CELLS, cache=ResultCache(tmp_path))
        assert all(o.source == "disk" for o in outcomes)

    def test_figure8_small_parallel_equals_serial(self):
        """Fig8-shaped matrix (basic+advanced per benchmark) at reduced
        scale: parallel and serial rows must agree exactly."""
        from repro.experiments import figure8

        names = list(SMALL)
        scale = SMALL["m88ksim"]
        cells = [
            Cell(n, s, 4, scale) for n in names for s in ("basic", "advanced")
        ]
        serial_rows = figure8.run(names, scale=scale)
        clear_memo()
        parallel_rows = figure8.run(names, scale=scale, jobs=2)
        assert serial_rows == parallel_rows
        # and the drivers' lookup helper covers the same cells
        clear_memo()
        table = results_by_cell(run_cells(cells, jobs=2))
        assert set(table) == set(cells)
