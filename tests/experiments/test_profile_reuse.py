"""The advanced cell reuses the conventional run's block profile.

The conventional cell's traced run executes the same optimized IR the
advanced scheme would profile (register allocation leaves the blocks
alone), so its pack records the profile and the advanced cell of the
same sweep skips its own profile run.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import clear_memo, run_cells
from repro.bench.matrix import Cell
from repro.bench.results import result_to_dict
from repro.experiments import runner
from repro.experiments.runner import prepare_program
from repro.runtime.interp import run_program
from repro.trace.store import TRACE_CACHE_ENV, clear_trace_pool
from repro.workloads import WORKLOADS, compile_workload

#: The smoke scales (compress, m88ksim) and the wall-clock benchmark's
#: scales for the other integer surrogates; the FP surrogates at their
#: smallest.
SCALES = {
    "compress": 150,
    "gcc": 1,
    "go": 1,
    "ijpeg": 1,
    "li": 3,
    "m88ksim": 2,
    "perl": 1,
    "ear": 1,
    "swim": 1,
}


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
    clear_memo()
    clear_trace_pool()
    yield
    clear_memo()
    clear_trace_pool()


def test_every_workload_has_a_scale():
    assert set(SCALES) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SCALES))
def test_conventional_traced_run_records_the_profile_run(name):
    scale = SCALES[name]
    conventional = prepare_program(name, "conventional", scale=scale)
    traced = run_program(conventional.program, collect_trace=True)
    profiled = run_program(compile_workload(name, scale))
    assert traced.profile.counts == profiled.profile.counts


def _count_runs(monkeypatch) -> dict[str, int]:
    runs = {"profile": 0, "traced": 0}
    real = runner.run_program

    def counting(*args, **kwargs):
        runs["traced" if kwargs.get("collect_trace") else "profile"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "run_program", counting)
    return runs


def test_sweep_profiles_nothing_and_matches_a_cold_advanced_cell(monkeypatch):
    scale = SCALES["compress"]
    advanced = Cell("compress", "advanced", 4, scale)
    cold = result_to_dict(run_cells([advanced])[0].unwrap())
    clear_memo()
    clear_trace_pool()

    runs = _count_runs(monkeypatch)
    # listed advanced-first: the harness still runs conventional first
    cells = [advanced, Cell("compress", "conventional", 4, scale)]
    outcomes = run_cells(cells)
    assert runs == {"profile": 0, "traced": 2}
    assert result_to_dict(outcomes[0].unwrap()) == cold


def test_advanced_only_sweep_still_profiles(monkeypatch):
    runs = _count_runs(monkeypatch)
    [outcome] = run_cells([Cell("compress", "advanced", 4, SCALES["compress"])])
    assert outcome.ok
    assert runs == {"profile": 1, "traced": 1}


def test_estimate_ablation_neither_profiles_nor_looks_up(monkeypatch):
    runner.run_benchmark("compress", "conventional", scale=SCALES["compress"])
    runs = _count_runs(monkeypatch)
    result = runner.run_benchmark(
        "compress", "advanced", scale=SCALES["compress"], use_profile=False
    )
    assert runs == {"profile": 0, "traced": 1}
    assert result.partition_summary["offloaded_instructions"] > 0
