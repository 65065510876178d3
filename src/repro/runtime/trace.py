"""Dynamic trace entries and static program layout.

The timing simulator is trace-driven.  A traced interpreter run packs
its trace as it goes, straight into the columns of a
:class:`~repro.trace.pack.PackedTrace`; :class:`TraceEntry` is the
same information for *one* dynamic instruction, as an object.  Entries
are what hand-built test traces are written in, and what
:meth:`~repro.trace.pack.PackedTrace.unpack_entries` reconstructs for
code that inspects a trace instruction by instruction (the pipeline
timeline, tests).  Each carries everything the pipeline model needs —

* ``pc`` — the instruction's laid-out address (I-cache, branch
  predictor indexing),
* ``subsystem`` — which half of the partitioned machine executes it,
* ``reads``/``writes`` — *dependence tokens*, register instances made
  unique across activations as ``(frame_id, register name)``, so true
  dependences survive recursion and cross-call value flow,
* ``mem_addr`` — effective address for loads/stores (D-cache, memory
  disambiguation),
* ``taken`` — branch outcome (predictor training / misprediction).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.ir.instructions import Instruction
from repro.ir.program import Program

#: Base address of the laid-out text segment.
TEXT_BASE = 0x400000

Token = tuple[int, str]


class Subsystem(enum.Enum):
    """Which half of the partitioned microarchitecture executes an
    instruction.  Loads and stores always occupy the INT subsystem's
    load/store port regardless of where their data register lives."""

    INT = "int"
    FP = "fp"


@dataclass(eq=False, slots=True)
class TraceEntry:
    """One dynamic instruction."""

    instr: Instruction
    pc: int
    subsystem: Subsystem
    reads: tuple[Token, ...]
    writes: tuple[Token, ...]
    mem_addr: int | None = None
    taken: bool | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.mem_addr is not None:
            extra = f" @{self.mem_addr:#x}"
        if self.taken is not None:
            extra = f" taken={self.taken}"
        return f"<T pc={self.pc:#x} {self.instr.op}{extra}>"


class ProgramLayout:
    """Assigns a text address to every static instruction.

    Functions are laid out sequentially in declaration order, four bytes
    per instruction, starting at :data:`TEXT_BASE`.
    """

    def __init__(self, program: Program):
        self.pc_of: dict[tuple[str, int], int] = {}
        self.text_size = 0
        addr = TEXT_BASE
        for func in program.functions.values():
            for instr in func.instructions():
                self.pc_of[(func.name, instr.uid)] = addr
                addr += 4
        self.text_size = addr - TEXT_BASE
