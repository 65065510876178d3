"""Table 1 — machine parameters.

Renders the live machine configurations and times a representative
simulation unit (a 4-way run of a short trace) so the harness reports a
stable baseline cost for the cycle model itself.
"""

from repro.experiments.report import format_table1
from repro.experiments.runner import cached_run_benchmark
from repro.sim.config import eight_way, four_way
from repro.sim.pipeline import simulate_trace
from repro.runtime.interp import run_program
from repro.workloads import compile_workload


def test_table1_configurations(benchmark, save_table):
    table = format_table1()
    save_table("table1", table)
    four = four_way()
    eight = eight_way()
    assert four.int_units == 2 and eight.int_units == 4

    program = compile_workload("m88ksim", scale=2)
    trace = run_program(program, collect_trace=True).packed

    def simulate():
        return simulate_trace(trace, four_way()).cycles

    cycles = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert cycles > 0
