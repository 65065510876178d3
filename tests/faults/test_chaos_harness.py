"""Chaos tests: the bench harness under injected faults.

Each test injects one fault class (pipeline error, worker crash, hang,
corrupted cache entry, partition failure) and asserts the failure is
isolated: siblings finish with results identical to a fault-free run,
and the failed cell carries a usable error record.

Crash and hang tests need ``jobs >= 2`` / a ``timeout`` so the harness
takes the process-pool path — an in-process crash would take pytest
down with it.  Worker processes inherit ``REPRO_FAULTS`` through fork,
so ``monkeypatch.setenv`` reaches them.
"""

from __future__ import annotations

import pytest

from repro.bench.cache import ResultCache, cell_key
from repro.bench.harness import clear_memo, run_cells
from repro.bench.matrix import Cell
from repro.bench.results import result_to_dict
from repro.errors import PartitionError, ReproError
from repro.experiments.runner import DEGRADE_ENV, run_benchmark
from repro.faults import reset_faults
from repro.faults.inject import FAULTS_ENV

from tests.faults.conftest import SMALL


def small_cells(*specs) -> list[Cell]:
    """``("compress", "basic")``-style specs -> smoke-scale cells."""
    return [Cell(name, scheme, 4, SMALL[name]) for name, scheme in specs]


def fault_free_results(cells) -> dict[str, dict]:
    """key -> result dict for ``cells``, computed with no faults active."""
    clear_memo()
    reset_faults()
    outcomes = run_cells(cells)
    clear_memo()
    return {o.key: result_to_dict(o.unwrap()) for o in outcomes}


class TestErrorFaults:
    def test_injected_error_is_isolated(self, monkeypatch):
        cells = small_cells(("compress", "conventional"), ("m88ksim", "conventional"))
        expected = fault_free_results(cells)
        monkeypatch.setenv(FAULTS_ENV, "execute:error:match=m88ksim")
        reset_faults()
        good, bad = run_cells(cells)  # must not raise

        assert good.ok and bad.status == "failed"
        assert result_to_dict(good.result) == expected[good.key]
        assert bad.result is None
        assert bad.error.type == "FaultInjected"
        assert bad.error.stage == "execute"
        with pytest.raises(ReproError, match="m88ksim.*failed"):
            bad.unwrap()

    def test_transient_error_retried_to_success(self, monkeypatch):
        """The harness records a failure once and never retries it; the
        retry is a rerun, which recomputes just the failed cell."""
        [cell] = small_cells(("compress", "conventional"))
        expected = fault_free_results([cell])
        monkeypatch.setenv(FAULTS_ENV, "execute:error:times=1")
        reset_faults()
        [failed] = run_cells([cell])
        assert failed.status == "failed"
        [outcome] = run_cells([cell])  # the one-shot fault is spent
        assert outcome.ok and outcome.source == "computed"
        assert result_to_dict(outcome.result) == expected[outcome.key]

    def test_failed_cell_leaves_no_partial_state(self, monkeypatch, tmp_path):
        """A failed cell must not leak into the memo or the disk cache."""
        from repro.bench import harness

        cells = small_cells(("compress", "conventional"), ("m88ksim", "conventional"))
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setenv(FAULTS_ENV, "simulate:error:match=m88ksim")
        good, bad = run_cells(cells, cache=cache)
        assert good.ok and not bad.ok
        assert bad.key not in harness._MEMO
        assert cache.get(bad.key) is None
        assert good.key in harness._MEMO
        assert cache.get(good.key) is not None


class TestCrashFaults:
    def test_worker_crash_is_contained_and_attributed(self, monkeypatch):
        cells = small_cells(
            ("compress", "conventional"),
            ("compress", "basic"),
            ("m88ksim", "conventional"),
        )
        expected = fault_free_results(cells)
        monkeypatch.setenv(FAULTS_ENV, "execute:crash:match=m88ksim")
        reset_faults()
        outcomes = run_cells(cells, jobs=2)

        by_workload = {}
        for outcome in outcomes:
            by_workload.setdefault(outcome.cell.workload, []).append(outcome)
        # innocents sharing a pool with the crasher are requeued, never
        # failed by association
        for outcome in by_workload["compress"]:
            assert outcome.ok, outcome.error
            assert result_to_dict(outcome.result) == expected[outcome.key]
        [crashed] = by_workload["m88ksim"]
        assert crashed.status == "failed"
        assert crashed.error.type == "BrokenProcessPool"


class TestHangFaults:
    def test_hang_past_timeout_is_killed_and_recorded(self, monkeypatch):
        cells = small_cells(("compress", "conventional"), ("m88ksim", "conventional"))
        expected = fault_free_results(cells)
        monkeypatch.setenv(FAULTS_ENV, "simulate:hang:secs=120:match=m88ksim")
        reset_faults()
        good, hung = run_cells(cells, jobs=2, timeout=4.0)

        assert good.ok
        assert result_to_dict(good.result) == expected[good.key]
        assert hung.status == "timeout"
        assert hung.error.type == "Timeout"
        assert "4" in hung.error.message


class TestCorruptCache:
    def test_corrupt_entry_costs_a_recompute_never_a_crash(
        self, monkeypatch, tmp_path
    ):
        [cell] = small_cells(("compress", "basic"))
        cache = ResultCache(tmp_path / "cache")
        [first] = run_cells([cell], cache=cache)
        assert first.source == "computed"
        clear_memo()

        monkeypatch.setenv(FAULTS_ENV, "cache.get:corrupt")
        reset_faults()
        [second] = run_cells([cell], cache=cache)
        assert second.ok
        assert second.cached is False  # scrambled entry was not trusted
        assert second.source == "computed"
        assert result_to_dict(second.result) == result_to_dict(first.result)


class TestGracefulDegradation:
    def test_advanced_falls_back_to_basic_when_opted_in(self, monkeypatch):
        scale = SMALL["compress"]
        basic = run_benchmark("compress", "basic", scale=scale)

        monkeypatch.setenv(FAULTS_ENV, "partition:error:type=PartitionError")
        monkeypatch.setenv(DEGRADE_ENV, "1")
        reset_faults()
        degraded = run_benchmark("compress", "advanced", scale=scale)
        assert degraded.degraded is True
        assert degraded.scheme == "advanced"  # records what was requested
        assert degraded.cycles == basic.cycles
        assert degraded.checksum == basic.checksum

    def test_fallback_makes_no_profile_run(self, monkeypatch):
        """The substituted basic scheme reads no profile, so after the
        failed advanced attempt only a recompile happens, no profile run."""
        from repro.experiments import runner

        events = []
        real_compile, real_run = runner.compile_workload, runner.run_program

        def compiling(*args, **kwargs):
            events.append("compile")
            return real_compile(*args, **kwargs)

        def running(*args, **kwargs):
            events.append("traced" if kwargs.get("collect_trace") else "profile")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(runner, "compile_workload", compiling)
        monkeypatch.setattr(runner, "run_program", running)
        monkeypatch.setenv(
            FAULTS_ENV, "partition:error:type=PartitionError:match=compress/advanced"
        )
        reset_faults()
        artifacts = runner.prepare_program(
            "compress", "advanced", scale=SMALL["compress"], degrade=True
        )
        assert artifacts.degraded is True
        assert artifacts.profile is None
        # the advanced attempt profiles, fails, then the fallback recompiles
        assert events == ["compile", "profile", "compile"]

    def test_without_opt_in_partition_failure_propagates(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "partition:error:type=PartitionError")
        with pytest.raises(PartitionError):
            run_benchmark("compress", "advanced", scale=SMALL["compress"])

    def test_basic_scheme_never_degrades(self, monkeypatch):
        """Degradation is an advanced-scheme substitution only."""
        monkeypatch.setenv(FAULTS_ENV, "partition:error:type=PartitionError")
        monkeypatch.setenv(DEGRADE_ENV, "1")
        with pytest.raises(PartitionError):
            run_benchmark("compress", "basic", scale=SMALL["compress"])

    def test_degraded_flag_survives_the_harness_round_trip(self, monkeypatch):
        [cell] = small_cells(("compress", "advanced"))
        monkeypatch.setenv(FAULTS_ENV, "partition:error:type=PartitionError")
        monkeypatch.setenv(DEGRADE_ENV, "1")
        reset_faults()
        [outcome] = run_cells([cell])
        assert outcome.ok
        doc = result_to_dict(outcome.result)
        assert doc["degraded"] is True

    @pytest.mark.parametrize("via", ["pool", "store"])
    def test_degraded_run_replays_only_while_degradation_is_on(
        self, monkeypatch, tmp_path, via
    ):
        """The pack of a degraded run replays as degraded; with
        degradation off, the same warm trace takes the cold path and
        fails as a cold run would."""
        from repro.trace.store import TRACE_CACHE_ENV, clear_trace_pool

        scale = SMALL["compress"]
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        monkeypatch.setenv(FAULTS_ENV, "partition:error:type=PartitionError")
        monkeypatch.setenv(DEGRADE_ENV, "1")
        reset_faults()
        cold = run_benchmark("compress", "advanced", scale=scale)
        assert cold.degraded is True
        if via == "store":
            clear_trace_pool()

        from repro.experiments import runner

        real_compile = runner.compile_workload
        monkeypatch.setattr(runner, "compile_workload", None)  # replay only
        replayed = run_benchmark("compress", "advanced", scale=scale)
        assert result_to_dict(replayed) == result_to_dict(cold)

        monkeypatch.setattr(runner, "compile_workload", real_compile)
        monkeypatch.delenv(DEGRADE_ENV)
        with pytest.raises(PartitionError):
            run_benchmark("compress", "advanced", scale=scale)
