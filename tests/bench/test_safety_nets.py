"""The pipeline's own resource safety nets.

``FuelExhausted`` (interpreter dynamic-instruction budget) and
``SimulationError`` (timing-simulator cycle limit) are the two guards
against a runaway cell.  Beyond firing, they must fail *cleanly*: a
tripped cell leaves no partial statistics in the memo or on disk.
"""

from __future__ import annotations

import functools

import pytest

from repro.bench import harness
from repro.bench.cache import ResultCache
from repro.bench.harness import run_cells
from repro.bench.matrix import Cell
from repro.errors import ExecutionError, FuelExhausted, ReproError, SimulationError
from repro.experiments import runner
from repro.runtime.interp import run_program
from repro.sim.config import four_way
from repro.sim.pipeline import TimingSimulator
from repro.workloads import compile_workload

from .conftest import SMALL, script_cells, under_patch


class TestFuelExhausted:
    def test_fuel_limit_trips(self):
        program = compile_workload("compress", SMALL["compress"])
        with pytest.raises(FuelExhausted, match="fuel"):
            run_program(program, fuel=10)

    def test_is_an_execution_error_with_its_own_exit_code(self):
        assert issubclass(FuelExhausted, ExecutionError)
        assert FuelExhausted.exit_code != ExecutionError.exit_code
        assert FuelExhausted.stage == "execute"

    def test_sufficient_fuel_is_untouched(self):
        program = compile_workload("compress", SMALL["compress"])
        result = run_program(program)
        assert result.instructions > 10  # the tiny budget above was real


class TestSimulationCycleLimit:
    def test_cycle_limit_trips(self):
        program = compile_workload("compress", SMALL["compress"])
        trace = run_program(program, collect_trace=True).packed
        simulator = TimingSimulator(four_way())
        with pytest.raises(SimulationError):
            simulator.run(trace, max_cycles=1)
        assert SimulationError.stage == "simulate"


#: guard -> (patch tripping it, the error it raises, that error's stage)
GUARDS = {
    "fuel": (
        (runner, "run_program", functools.partial(run_program, fuel=10)),
        FuelExhausted,
        "execute",
    ),
    "max_cycles": (
        (
            TimingSimulator,
            "run",
            functools.partialmethod(TimingSimulator.run, max_cycles=1),
        ),
        SimulationError,
        "simulate",
    ),
}


class TestNoPartialStateOnTrip:
    @pytest.mark.parametrize("guard", sorted(GUARDS))
    def test_tripped_cell_leaks_nothing(self, monkeypatch, tmp_path, guard):
        """A cell tripping a guard mid-pipeline leaves memo and disk cache
        as if it had never run, while its sibling lands normally."""
        patch, error, stage = GUARDS[guard]
        script_cells(monkeypatch, "m88ksim", under_patch(*patch))
        cells = [
            Cell("compress", "conventional", 4, SMALL["compress"]),
            Cell("m88ksim", "conventional", 4, SMALL["m88ksim"]),
        ]
        cache = ResultCache(tmp_path / "cache")
        good, bad = run_cells(cells, cache=cache)

        assert good.ok and bad.status == "failed"
        assert bad.error.type == error.__name__
        assert bad.error.stage == stage
        assert bad.result is None
        assert bad.key not in harness._MEMO
        assert cache.get(bad.key) is None
        assert good.key in harness._MEMO
        assert cache.get(good.key) is not None
        with pytest.raises(ReproError):
            bad.unwrap()
