"""Ablation — microarchitectural sweeps (DESIGN.md §5.1).

Varies issue-window size and functional-unit counts around the Table 1
design points, plus a perfect-branch-prediction oracle, to show which
resources the FPa speedup actually comes from.
"""

import pytest

from repro.experiments.runner import prepare_program
from repro.runtime.interp import run_program
from repro.sim.config import four_way
from repro.sim.pipeline import simulate_trace

SCALE = 6  # m88ksim


@pytest.fixture(scope="module")
def traces():
    out = {}
    for scheme in ("conventional", "advanced"):
        program = prepare_program("m88ksim", scheme, scale=SCALE).program
        out[scheme] = run_program(program, collect_trace=True).packed
    return out


def test_window_size_sweep(traces, save_table, benchmark):
    lines = ["Ablation: issue-window size (4-way, m88ksim)"]
    cycles = {}
    for window in (8, 16, 32, 64):
        config = four_way(int_window=window, fp_window=window)
        base = simulate_trace(traces["conventional"], config).cycles
        part = simulate_trace(traces["advanced"], config).cycles
        cycles[window] = (base, part)
        lines.append(
            f"window={window:3d}  conventional={base:7d}  advanced={part:7d}  "
            f"speedup={100 * (base / part - 1):+5.1f}%"
        )
    save_table("ablation_window", "\n".join(lines))

    # bigger windows never hurt
    assert cycles[64][0] <= cycles[8][0]
    assert cycles[64][1] <= cycles[8][1]
    # the partitioned machine effectively doubles the window: the
    # advanced trace on window=16 should beat conventional on window=16
    assert cycles[16][1] < cycles[16][0]

    benchmark.pedantic(
        lambda: simulate_trace(traces["advanced"], four_way()).cycles,
        rounds=1,
        iterations=1,
    )


def test_unit_count_sweep(traces, save_table, benchmark):
    lines = ["Ablation: INT functional units (m88ksim, advanced trace)"]
    results = {}

    def sweep():
        for units in (1, 2, 4):
            config = four_way(int_units=units)
            base = simulate_trace(traces["conventional"], config).cycles
            part = simulate_trace(traces["advanced"], config).cycles
            results[units] = (base, part)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    for units, (base, part) in results.items():
        lines.append(
            f"int_units={units}  conventional={base:7d}  advanced={part:7d}  "
            f"speedup={100 * (base / part - 1):+5.1f}%"
        )
    save_table("ablation_units", "\n".join(lines))

    # offloading helps most when the INT subsystem is narrow
    speedup_1 = results[1][0] / results[1][1]
    speedup_4 = results[4][0] / results[4][1]
    assert speedup_1 > speedup_4 - 0.02


def test_perfect_branch_oracle(traces, save_table, benchmark):
    real_base = simulate_trace(traces["conventional"], four_way()).cycles
    real_part = simulate_trace(traces["advanced"], four_way()).cycles
    oracle_base = benchmark.pedantic(
        lambda: simulate_trace(
            traces["conventional"], four_way(), perfect_branches=True
        ).cycles,
        rounds=1,
        iterations=1,
    )
    oracle_part = simulate_trace(
        traces["advanced"], four_way(), perfect_branches=True
    ).cycles
    save_table(
        "ablation_oracle",
        "Ablation: gshare vs oracle prediction (m88ksim)\n"
        f"gshare : conventional={real_base}, advanced={real_part}, "
        f"speedup={100 * (real_base / real_part - 1):+.1f}%\n"
        f"oracle : conventional={oracle_base}, advanced={oracle_part}, "
        f"speedup={100 * (oracle_base / oracle_part - 1):+.1f}%",
    )
    assert oracle_base <= real_base
    assert oracle_part <= real_part
