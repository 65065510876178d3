"""Pinned ``SimStats`` counters: any change to the timing model fails here.

The CI bench gate compares every counter exactly, but only on the fig8
cells, and it needs a full sweep; these pins run in seconds.  They
cover every counter of :meth:`SimStats.to_counters` for

* the smoke matrix (compress and m88ksim, all three schemes), whose
  23-26k-instruction traces wrap the simulator's in-flight ring hundreds
  of times, on both Table 1 machines, fresh from the traced run and
  decoded from their encoding; and
* one hand-built trace with a divide chain, a store followed by a load of
  the same word, a read of a value written as far back as the ring is
  long, and consumers that wait while their producer retires and the
  front end runs a full window ahead.

The values were recorded with the object-per-instruction simulator that
the ring-indexed loop replaced.  A deliberate change to the timing model
re-records them and says why.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import SCHEMES, prepare_program
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.registers import RegClass, virtual_reg
from repro.runtime.interp import run_program
from repro.runtime.trace import Subsystem, TraceEntry
from repro.sim.config import eight_way, four_way
from repro.sim.pipeline import simulate_trace
from repro.trace.pack import PackedTrace

#: The smoke matrix's workload scales (as in the trace-equivalence tests).
SMOKE = {"compress": 150, "m88ksim": 2}

FIELDS = (
    "cycles", "retired", "int_issued", "fp_issued", "loads", "stores",
    "branches", "branch_mispredicts", "icache_hits", "icache_misses",
    "dcache_hits", "dcache_misses", "int_busy_cycles", "fp_busy_cycles",
    "int_idle_fp_busy_cycles", "fetch_stall_cycles", "dispatch_stall_cycles",
)

#: (workload, scheme, width) -> counters in FIELDS order
GOLDEN = {
    ("compress", "conventional", 4): (12289, 22962, 22962, 0, 1165, 1693, 1938, 57, 22962, 5, 2641, 217, 11944, 0, 0, 760, 1381),
    ("compress", "conventional", 8): (7917, 22962, 22962, 0, 1165, 1693, 1938, 57, 22962, 5, 2641, 217, 7042, 0, 0, 832, 1077),
    ("compress", "basic", 4): (11388, 22962, 20939, 2023, 1165, 1693, 1938, 57, 22962, 5, 2641, 217, 10986, 2018, 56, 758, 1728),
    ("compress", "basic", 8): (7463, 22962, 20939, 2023, 1165, 1693, 1938, 57, 22962, 5, 2641, 217, 6540, 1950, 48, 809, 1077),
    ("compress", "advanced", 4): (10209, 24428, 18013, 6415, 1165, 1693, 1938, 55, 24428, 6, 2641, 217, 9655, 5367, 61, 679, 1544),
    ("compress", "advanced", 8): (7387, 24428, 18013, 6415, 1165, 1693, 1938, 55, 24428, 6, 2641, 217, 6310, 4222, 302, 781, 946),
    ("m88ksim", "conventional", 4): (14659, 25240, 25240, 0, 1149, 1449, 2822, 245, 25240, 8, 2465, 133, 13411, 0, 0, 2029, 1723),
    ("m88ksim", "conventional", 8): (10511, 25240, 25240, 0, 1149, 1449, 2822, 245, 25240, 8, 2465, 133, 8688, 0, 0, 1770, 2185),
    ("m88ksim", "basic", 4): (13011, 25240, 21251, 3989, 1149, 1449, 2822, 245, 25240, 8, 2465, 133, 11664, 2517, 146, 1458, 1728),
    ("m88ksim", "basic", 8): (10203, 25240, 21251, 3989, 1149, 1449, 2822, 245, 25240, 8, 2465, 133, 8321, 2526, 175, 1482, 2185),
    ("m88ksim", "advanced", 4): (11729, 26433, 17364, 9069, 1149, 1449, 2822, 241, 26433, 8, 2465, 133, 9851, 6299, 156, 1482, 1683),
    ("m88ksim", "advanced", 8): (9848, 26433, 17364, 9069, 1149, 1449, 2822, 241, 26433, 8, 2465, 133, 7479, 5546, 701, 1430, 2152),
}

#: width -> counters of :func:`edge_trace`, in FIELDS order
EDGE_GOLDEN = {
    4: (644, 655, 652, 3, 2, 2, 379, 12, 655, 3, 3, 1, 372, 3, 1, 191, 297),
    8: (410, 655, 652, 3, 2, 2, 379, 12, 655, 3, 3, 1, 227, 3, 1, 190, 175),
}

CONFIGS = {4: four_way, 8: eight_way}


def edge_trace() -> list[TraceEntry]:
    """A 655-instruction trace built around the ring's edge cases."""
    entries: list[TraceEntry] = []

    def emit(op, reads=(), write=None, side=Subsystem.INT, mem_addr=None, taken=None):
        fp = side is Subsystem.FP or op is Opcode.LS
        defs = [virtual_reg(0, RegClass.FP if fp else RegClass.INT)] if write else []
        instr = Instruction(op, defs=defs, uses=[virtual_reg(1)] * 2,
                            imm=0 if mem_addr is not None else None,
                            target="x" if taken is not None else None)
        pc = 0x400000 + 4 * (len(entries) % 96)  # three I-cache lines, reused
        entries.append(TraceEntry(
            instr, pc, side, tuple((0, name) for name in reads),
            ((0, write),) if write else (), mem_addr=mem_addr, taken=taken,
        ))

    emit(Opcode.ADDU, write="old")  # read again 257 instructions later
    emit(Opcode.ADDU, write="base")
    prev = "base"
    for i in range(5):  # divide chain
        emit(Opcode.DIV, (prev,), f"d{i}")
        prev = f"d{i}"
    emit(Opcode.SW, (prev, "base"), mem_addr=0x2000)
    emit(Opcode.LW, ("base",), "loaded", mem_addr=0x2000)  # waits for the store
    emit(Opcode.ADDU, ("loaded",), "use")
    prev = "use"
    for i in range(246):  # short dependence chains, a branch every 16
        if i % 16 == 15:
            emit(Opcode.BNE, (prev,), taken=(i // 16) % 2 == 0)
            continue
        op = Opcode.MULT if i % 7 == 0 else Opcode.ADDU
        emit(op, () if i % 4 == 0 else (prev,), f"f{i}")
        prev = f"f{i}"
    # "old" is 256 instructions back: its ring slot (on either machine)
    # now holds this divide, which is still executing
    emit(Opcode.DIV, (prev,), "slow")
    emit(Opcode.ADDU, ("old",), "late")
    emit(Opcode.ADDU_A, ("old",), "late_fp", side=Subsystem.FP)
    emit(Opcode.SS, ("late_fp", "base"), mem_addr=0x2004)
    emit(Opcode.LS, ("base",), "reload", mem_addr=0x2004)
    emit(Opcode.DIV_S, ("reload",), "q0", side=Subsystem.FP)
    emit(Opcode.DIV_S, ("q0",), "q1", side=Subsystem.FP)
    # A consumer whose producer retires while the consumer still waits:
    # the producer is `gap` + 7 instructions back, and the front end
    # then runs a full ROB plus fetch buffer past the waiting consumer.
    # gap 24 stresses the 4-way machine, gap 48 the 8-way one.
    for gap in (24, 48):
        emit(Opcode.DIV, (), f"a{gap}")
        emit(Opcode.DIV, (f"a{gap}",), f"b{gap}")
        emit(Opcode.DIV, (f"b{gap}",), f"p{gap}")  # completes late
        for _ in range(gap):
            emit(Opcode.BNE, (), taken=False)
        chain = ()
        for i in range(6):  # keeps the consumer waiting
            emit(Opcode.DIV, chain, f"c{gap}_{i}")
            chain = (f"c{gap}_{i}",)
        emit(Opcode.ADDU, (f"p{gap}", chain[0]), f"s{gap}")
        for _ in range(100):
            emit(Opcode.BNE, (), taken=False)
    # A producer max_inflight - 1 back that is still executing: the
    # furthest a recorded producer can be (31 on 4-way, 63 on 8-way).
    for gap in (31, 63):
        emit(Opcode.DIV, (), f"e{gap}")
        emit(Opcode.DIV, (f"e{gap}",), f"g{gap}")
        emit(Opcode.DIV, (f"g{gap}",), f"h{gap}")
        for _ in range(gap - 1):
            emit(Opcode.BNE, (), taken=False)
        # a divide, so its issue cycle shows in when it retires
        emit(Opcode.DIV, (f"h{gap}",), f"t{gap}")
    return entries


@pytest.fixture(scope="module")
def smoke_packs():
    """(workload, scheme) -> packed trace; each cell interpreted once."""
    packs = {}
    for workload, scale in SMOKE.items():
        for scheme in SCHEMES:
            artifacts = prepare_program(workload, scheme, scale=scale)
            packs[(workload, scheme)] = run_program(
                artifacts.program, collect_trace=True
            ).packed
    return packs


@pytest.mark.parametrize(("workload", "scheme", "width"), sorted(GOLDEN),
                         ids=[f"{w}/{s}/{k}way" for w, s, k in sorted(GOLDEN)])
def test_smoke_counters_are_pinned(smoke_packs, workload, scheme, width):
    stats = simulate_trace(smoke_packs[(workload, scheme)], CONFIGS[width]())
    assert stats.to_counters() == dict(zip(FIELDS, GOLDEN[(workload, scheme, width)]))


@pytest.mark.parametrize(("workload", "scheme", "width"), sorted(GOLDEN),
                         ids=[f"{w}/{s}/{k}way" for w, s, k in sorted(GOLDEN)])
def test_decoded_smoke_counters_are_pinned(smoke_packs, workload, scheme, width):
    """A decoded pack simulates from its stored producer columns."""
    decoded = PackedTrace.from_bytes(smoke_packs[(workload, scheme)].to_bytes())
    stats = simulate_trace(decoded, CONFIGS[width]())
    assert stats.to_counters() == dict(zip(FIELDS, GOLDEN[(workload, scheme, width)]))


@pytest.mark.parametrize("width", sorted(EDGE_GOLDEN))
def test_edge_trace_counters_are_pinned(width):
    stats = simulate_trace(edge_trace(), CONFIGS[width]())
    assert stats.to_counters() == dict(zip(FIELDS, EDGE_GOLDEN[width]))
