"""Chaos tests: the ``trace_pack`` fault site.

The packed-trace store is a trust boundary: its contents can rot on
disk (``corrupt`` flips raw bytes before the decoder sees them) and its
read path can fail outright (``error``).  Corruption must cost a silent
re-interpretation — never a wrong result, never contamination of a
sibling cell — while read-path errors behave like any pipeline fault:
captured per cell, retryable, isolated.

The site only fires when ``REPRO_TRACE_CACHE`` is active: without the
opt-in nothing reads packs from disk, so there is nothing to corrupt.
"""

from __future__ import annotations

from repro.bench.harness import clear_memo, run_cells
from repro.bench.matrix import Cell
from repro.bench.results import result_to_dict
from repro.experiments.runner import run_benchmark
from repro.faults import corrupt_point, reset_faults
from repro.faults.inject import FAULTS_ENV
from repro.trace.store import TRACE_CACHE_ENV, TraceStore, clear_trace_pool

from tests.faults.conftest import SMALL


def _seed_store(monkeypatch, tmp_path, name="compress", scheme="conventional"):
    """Run one cell with the trace store on; returns its fault-free result."""
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
    result = run_benchmark(name, scheme, scale=SMALL[name])
    clear_memo()
    clear_trace_pool()
    reset_faults()
    return result


class TestCorruptBytes:
    def test_corrupt_point_flips_bytes_deterministically(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "trace_pack:corrupt")
        reset_faults()
        data = bytes(range(64))
        out = corrupt_point("trace_pack", data)
        again_injector_state = corrupt_point("trace_pack", data)
        assert out != data and len(out) == len(data)
        assert out == again_injector_state  # same clause, same flips
        assert corrupt_point("trace_pack", b"") == b""

    def test_corrupt_pack_costs_reinterpretation_not_wrongness(
        self, monkeypatch, tmp_path
    ):
        fresh = _seed_store(monkeypatch, tmp_path)
        monkeypatch.setenv(FAULTS_ENV, "trace_pack:corrupt:times=1")
        again = run_benchmark("compress", "conventional", scale=SMALL["compress"])
        assert again.checksum == fresh.checksum
        assert again.stats.to_counters() == fresh.stats.to_counters()

    def test_no_sibling_contamination(self, monkeypatch, tmp_path):
        """A corrupt compress pack must not perturb the m88ksim cells."""
        cells = [
            Cell("compress", "conventional", 4, SMALL["compress"]),
            Cell("compress", "basic", 4, SMALL["compress"]),
            Cell("m88ksim", "conventional", 4, SMALL["m88ksim"]),
            Cell("m88ksim", "basic", 4, SMALL["m88ksim"]),
        ]
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        clean = {
            o.key: result_to_dict(o.result) for o in run_cells(cells)
        }
        clear_memo()
        clear_trace_pool()
        reset_faults()

        monkeypatch.setenv(FAULTS_ENV, "trace_pack:corrupt:match=compress")
        outcomes = run_cells(cells)
        assert all(o.ok for o in outcomes)
        for outcome in outcomes:
            assert result_to_dict(outcome.result) == clean[outcome.key]


class TestReadPathErrors:
    def test_error_is_captured_and_attributed(self, monkeypatch, tmp_path):
        _seed_store(monkeypatch, tmp_path)
        monkeypatch.setenv(FAULTS_ENV, "trace_pack:error")
        [outcome] = run_cells(
            [Cell("compress", "conventional", 4, SMALL["compress"])]
        )
        assert outcome.status == "failed"
        assert outcome.error is not None
        assert outcome.error.type == "FaultInjected"
        assert outcome.error.stage == "trace_pack"

    def test_transient_error_survives_a_retry(self, monkeypatch, tmp_path):
        """The failed read is recorded once; rerunning the cell (the
        retry) replays the intact pack."""
        fresh = _seed_store(monkeypatch, tmp_path)
        monkeypatch.setenv(FAULTS_ENV, "trace_pack:error:times=1")
        cell = Cell("compress", "conventional", 4, SMALL["compress"])
        [failed] = run_cells([cell])
        assert failed.status == "failed"
        [outcome] = run_cells([cell])
        assert outcome.ok
        assert result_to_dict(outcome.result) == result_to_dict(fresh)

    def test_site_is_dormant_without_the_store(self, monkeypatch):
        """No REPRO_TRACE_CACHE, no disk reads: the clause never fires."""
        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        monkeypatch.setenv(FAULTS_ENV, "trace_pack:error")
        result = run_benchmark("compress", "conventional", scale=SMALL["compress"])
        assert result.cycles > 0


class TestStoreStateAfterChaos:
    def test_fallback_repairs_the_store(self, monkeypatch, tmp_path):
        """After a corrupt read, the re-interpreted pack is re-published
        and the next (fault-free) run replays it cleanly."""
        fresh = _seed_store(monkeypatch, tmp_path)
        monkeypatch.setenv(FAULTS_ENV, "trace_pack:corrupt:times=1")
        run_benchmark("compress", "conventional", scale=SMALL["compress"])
        clear_memo()
        clear_trace_pool()
        monkeypatch.delenv(FAULTS_ENV)
        reset_faults()

        again = run_benchmark("compress", "conventional", scale=SMALL["compress"])
        assert again.stats.to_counters() == fresh.stats.to_counters()
        # the repaired pack on disk decodes cleanly
        store = TraceStore(tmp_path)
        from repro.trace.store import trace_key

        assert store.get(
            trace_key("compress", "conventional", SMALL["compress"])
        ) is not None
