#!/usr/bin/env python3
"""Evaluate the partitionability of your own workload.

Write a MiniC program (or point this script at a file), and it reports
how much of it each scheme can offload and what that is worth on the
paper's machines — a small "what-if" tool for the FPa idea.

Usage::

    python examples/custom_workload.py            # built-in demo kernel
    python examples/custom_workload.py my_prog.mc # your own program
"""

import sys

from repro import compile_minic
from repro.partition import partition_program
from repro.regalloc import allocate_program
from repro.runtime import run_program
from repro.sim import eight_way, four_way, simulate_trace

# A string-matching flavoured demo: branch-heavy scanning with counters.
DEMO = """
int text[512];
int pattern[8];
int match_at[512];

int main() {
    int i; int j; int ok; int matches = 0; int seed = 77;
    for (i = 0; i < 512; i = i + 1) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        text[i] = (seed >> 9) & 7;
    }
    for (j = 0; j < 8; j = j + 1) { pattern[j] = (j * 3) & 7; }
    for (i = 0; i < 504; i = i + 1) {
        ok = 1;
        for (j = 0; j < 8; j = j + 1) {
            if (text[i + j] != pattern[j]) { ok = 0; break; }
        }
        match_at[i] = ok;
        if (ok) { matches = matches + 1; }
    }
    return matches * 1000 + text[13];
}
"""


def evaluate(source: str) -> None:
    baseline = compile_minic(source)
    allocate_program(baseline)
    base_run = run_program(baseline, collect_trace=True)

    print(f"checksum            : {base_run.value}")
    print(f"dynamic instructions: {base_run.instructions}")
    mix = base_run.packed.dynamic_mix()
    print(
        f"instruction mix     : {mix['loads']} loads, {mix['stores']} stores, "
        f"{mix['branches']} branches"
    )

    sims = {}
    for width, config in (("4-way", four_way()), ("8-way", eight_way())):
        sims[width] = simulate_trace(base_run.packed, config)

    for scheme in ("basic", "advanced"):
        program = compile_minic(source)
        profile = run_program(program).profile if scheme == "advanced" else None
        result = partition_program(program, scheme, profile=profile)
        allocate_program(program)
        run = run_program(program, collect_trace=True)
        assert run.value == base_run.value, "partitioning changed semantics!"
        offload = run.packed.dynamic_mix()["fp_executed"] / run.instructions

        print(f"\n--- {scheme} scheme ---")
        print(
            f"static: {result.total('offloaded_instructions')} instructions offloaded, "
            f"{result.total('copies')} copies, {result.total('dups')} duplicates"
        )
        print(f"dynamic offload: {100 * offload:.1f}%")
        for width, config in (("4-way", four_way()), ("8-way", eight_way())):
            part_stats = simulate_trace(run.packed, config)
            base_stats = sims[width]
            print(
                f"{width}: {base_stats.cycles} -> {part_stats.cycles} cycles "
                f"({100 * (base_stats.cycles / part_stats.cycles - 1):+.1f}%)"
            )


def main() -> None:
    if len(sys.argv) > 1:
        with open(sys.argv[1]) as handle:
            source = handle.read()
        print(f"evaluating {sys.argv[1]}\n")
    else:
        source = DEMO
        print("evaluating the built-in pattern-matching demo\n")
    evaluate(source)


if __name__ == "__main__":
    main()
