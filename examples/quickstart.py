#!/usr/bin/env python3
"""Quickstart: compile, partition, and simulate a small program.

Runs the complete pipeline of the paper on a little histogram kernel:

1. compile MiniC to the MIPS-like IR (machine-independent optimizations
   included),
2. partition every function with the advanced scheme (profile-driven
   cost model, copies + duplication), certify each partition with the
   independent §6.1 re-pricing, rewrite and verify,
3. register-allocate,
4. execute both versions and replay their traces through the 4-way
   (2 int + 2 fp) machine of the paper's Table 1,
5. report how much work moved to the FPa subsystem and what it bought.

Usage::

    python examples/quickstart.py
"""

from repro import compile_minic
from repro.ir.printer import print_function
from repro.partition import partition_program
from repro.regalloc import allocate_program
from repro.runtime import run_program
from repro.sim import four_way, simulate_trace

SOURCE = """
int data[256];
int histogram[16];

int main() {
    int i; int v; int bucket;
    int seed = 1234567;
    for (i = 0; i < 256; i = i + 1) {
        seed = (seed * 69069 + 5) & 0x7fffffff;
        data[i] = (seed >> 11) & 255;
    }
    for (i = 0; i < 256; i = i + 1) {
        v = data[i];
        bucket = v >> 4;
        if (v & 1) {
            histogram[bucket] = histogram[bucket] + 2;
        } else {
            histogram[bucket] = histogram[bucket] + 1;
        }
    }
    v = 0;
    for (i = 0; i < 16; i = i + 1) { v = v + histogram[i] * i; }
    return v & 0xffff;
}
"""


def build(partitioned: bool):
    program = compile_minic(SOURCE)
    if partitioned:
        profile = run_program(program).profile
        result = partition_program(program, "advanced", profile=profile)
        for name, stats in result.stats.items():
            print(
                f"  {name}: offloaded {stats['offloaded_instructions']} "
                f"static instructions ({stats['copies']} copies, "
                f"{stats['dups']} duplicates)"
            )
    allocate_program(program)
    return program


def main() -> None:
    print("== conventional build ==")
    conventional = build(partitioned=False)

    print("== partitioned build (advanced scheme) ==")
    partitioned = build(partitioned=True)

    runs = {}
    for label, program in (("conventional", conventional), ("partitioned", partitioned)):
        result = run_program(program, collect_trace=True)
        stats = simulate_trace(result.packed, four_way())
        mix = result.packed.dynamic_mix()
        runs[label] = (result, stats, mix)

    base_result, base_stats, _ = runs["conventional"]
    part_result, part_stats, part_mix = runs["partitioned"]
    assert base_result.value == part_result.value, "partitioning changed semantics!"

    offload = part_mix["fp_executed"] / part_mix["total"]
    print(f"\nchecksum                : {base_result.value}")
    print(f"dynamic instructions    : {base_result.instructions} -> {part_result.instructions}")
    print(f"offloaded to FPa        : {100 * offload:.1f}% of dynamic instructions")
    print(f"cycles (4-way machine)  : {base_stats.cycles} -> {part_stats.cycles}")
    print(f"IPC                     : {base_stats.ipc:.2f} -> {part_stats.ipc:.2f}")
    print(f"speedup                 : {100 * (base_stats.cycles / part_stats.cycles - 1):+.1f}%")

    print("\nmain() after partitioning and register allocation:")
    print(print_function(partitioned.functions["main"]))


if __name__ == "__main__":
    main()
