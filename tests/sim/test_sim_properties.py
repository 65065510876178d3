"""Property-based timing-simulator tests: random well-formed traces must
simulate without deadlock and obey basic throughput/latency bounds."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.registers import RegClass, virtual_reg
from repro.runtime.trace import Subsystem, TraceEntry
from repro.sim.config import eight_way, four_way
from repro.sim.pipeline import simulate_trace

_PC = 0x400000


def _fp_reg():
    return virtual_reg(0, RegClass.FP)


@st.composite
def random_trace(draw, max_len=600):
    """A dependence-correct trace: every read refers to an earlier write
    (or is omitted), memory addresses are aligned, branches carry
    outcomes.

    Up to 600 instructions: longer than the simulator's in-flight ring
    on both machine widths (128 and 256 slots), so ring wrap-around is
    exercised.  An entry reads up to three tokens, so both producer
    columns and the overflow of a third read are exercised.  Each read
    picks a recent value (a dependence chain), any earlier one (in a
    long trace usually hundreds of instructions old) or the same token
    as the entry's previous read.  A writing entry sometimes writes back
    the token of its first read, as ``i = i + 1`` does.  Memory rows
    include ``l.s``/``s.s`` on either subsystem: the interpreter records
    them as INT, and a hand-built FP row drives the FP window's memory
    path.
    """
    n = draw(st.integers(1, max_len))
    entries = []
    written: list[str] = []
    for i in range(n):
        kind = draw(st.integers(0, 13))
        reads: tuple = ()
        if written:
            for _ in range(draw(st.integers(0, 3))):
                pick = draw(st.integers(0, 2))  # 0 recent, 1 any earlier, 2 repeat
                if pick == 2 and reads:
                    reads += (reads[-1],)
                else:
                    low = max(0, len(written) - 8) if pick != 1 else 0
                    reads += ((0, written[draw(st.integers(low, len(written) - 1))]),)
        pc = _PC + 4 * (i % 24)  # loop-ish pc reuse
        name = reads[0][1] if reads and draw(st.integers(0, 3)) == 0 else f"r{i}"
        writes = ((0, name),)
        addr = None
        if 7 <= kind <= 10:
            addr = 0x1000 + 4 * draw(st.integers(0, 63))
        if kind <= 2:  # int ALU
            instr = Instruction(Opcode.ADDU, defs=[virtual_reg(0)],
                                uses=[virtual_reg(1)] * 2)
            entry = TraceEntry(instr, pc, Subsystem.INT, reads, writes)
        elif kind <= 4:  # fpa ALU
            instr = Instruction(Opcode.ADDU_A, defs=[_fp_reg()],
                                uses=[virtual_reg(1, RegClass.FP)] * 2)
            entry = TraceEntry(instr, pc, Subsystem.FP, reads, writes)
        elif kind == 5:  # int multiply
            instr = Instruction(Opcode.MULT, defs=[virtual_reg(0)],
                                uses=[virtual_reg(1)] * 2)
            entry = TraceEntry(instr, pc, Subsystem.INT, reads, writes)
        elif kind == 6:  # divide, on either side
            fp = draw(st.booleans())
            instr = Instruction(Opcode.DIV_S if fp else Opcode.DIV,
                                defs=[_fp_reg() if fp else virtual_reg(0)],
                                uses=[virtual_reg(1)] * 2)
            entry = TraceEntry(instr, pc, Subsystem.FP if fp else Subsystem.INT,
                               reads, writes)
        elif kind == 7:  # int load
            instr = Instruction(Opcode.LW, defs=[virtual_reg(0)],
                                uses=[virtual_reg(1)], imm=0)
            entry = TraceEntry(instr, pc, Subsystem.INT, reads, writes,
                               mem_addr=addr)
        elif kind == 8:  # int store
            instr = Instruction(Opcode.SW, uses=[virtual_reg(0), virtual_reg(1)], imm=0)
            entry = TraceEntry(instr, pc, Subsystem.INT, reads, (),
                               mem_addr=addr)
        elif kind == 9:  # l.s into an FP register, on either subsystem
            side = Subsystem.FP if draw(st.booleans()) else Subsystem.INT
            instr = Instruction(Opcode.LS, defs=[_fp_reg()],
                                uses=[virtual_reg(1)], imm=0)
            entry = TraceEntry(instr, pc, side, reads, writes, mem_addr=addr)
        elif kind == 10:  # s.s from an FP register, on either subsystem
            side = Subsystem.FP if draw(st.booleans()) else Subsystem.INT
            instr = Instruction(Opcode.SS, uses=[_fp_reg(), virtual_reg(1)], imm=0)
            entry = TraceEntry(instr, pc, side, reads, (), mem_addr=addr)
        else:  # branch
            instr = Instruction(Opcode.BNE, uses=[virtual_reg(0)] * 2, target="x")
            entry = TraceEntry(instr, pc, Subsystem.INT, reads, (),
                               taken=draw(st.booleans()))
        entries.append(entry)
        if entry.writes:
            written.append(name)
    return entries


@settings(max_examples=40, deadline=None)
@given(random_trace())
def test_every_instruction_retires(trace):
    stats = simulate_trace(trace, four_way())
    assert stats.retired == len(trace)


@settings(max_examples=40, deadline=None)
@given(random_trace())
def test_cycle_bounds(trace):
    """Cycles are bounded below by fetch bandwidth and above by a
    fully-serialized worst case."""
    stats = simulate_trace(trace, four_way())
    lower = math.ceil(len(trace) / 4)
    assert stats.cycles >= lower
    # worst case: every instruction serialized with a miss + mispredict
    assert stats.cycles <= 40 * len(trace) + 100


@settings(max_examples=25, deadline=None)
@given(random_trace())
def test_eight_way_never_slower(trace):
    four = simulate_trace(list(trace), four_way())
    eight = simulate_trace(list(trace), eight_way())
    assert eight.cycles <= four.cycles + 2


@settings(max_examples=25, deadline=None)
@given(random_trace())
def test_issue_counts_partition_correctly(trace):
    stats = simulate_trace(trace, four_way())
    fp_expected = sum(1 for e in trace if e.subsystem is Subsystem.FP)
    assert stats.fp_issued == fp_expected
    assert stats.int_issued == len(trace) - fp_expected


@settings(max_examples=25, deadline=None)
@given(random_trace())
def test_simulation_is_deterministic(trace):
    a = simulate_trace(list(trace), four_way())
    b = simulate_trace(list(trace), four_way())
    assert a.cycles == b.cycles
    assert a.branch_mispredicts == b.branch_mispredicts
