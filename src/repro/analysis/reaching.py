"""Reaching definitions.

The register dependence graph of the paper is "determined by solving the
reaching-definitions dataflow problem"; this module provides exactly that:
for every register use, the set of definition sites whose value may reach
it.  Definitions are ``param`` pseudo-ops, ``call`` results, and every
ordinary instruction destination.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dataflow import DataflowProblem, solve_dataflow
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.registers import Reg, ZERO


@dataclass(frozen=True, slots=True)
class DefSite:
    """One definition site: instruction ``uid`` defines register ``reg``
    in block ``block``."""

    uid: int
    reg: Reg
    block: str


class ReachingDefinitions:
    """Reaching-definitions solution for one function.

    After construction, :meth:`du_edges` yields the def-use edges that
    become RDG register edges, and :meth:`reaching_defs_of_use` answers
    point queries.
    """

    def __init__(self, func: Function):
        self.func = func
        self.defs: list[DefSite] = []
        self._def_index: dict[int, list[int]] = {}  # instr uid -> def indices
        self._reg_mask: dict[Reg, int] = {}

        for blk in func.blocks:
            for instr in blk.instructions:
                for reg in instr.defs:
                    index = len(self.defs)
                    self.defs.append(DefSite(instr.uid, reg, blk.label))
                    self._def_index.setdefault(instr.uid, []).append(index)
                    self._reg_mask[reg] = self._reg_mask.get(reg, 0) | (1 << index)

        gen: dict[str, int] = {}
        kill: dict[str, int] = {}
        for blk in func.blocks:
            g = 0
            k = 0
            for instr in blk.instructions:
                for reg, index in zip(instr.defs, self._def_index.get(instr.uid, [])):
                    reg_all = self._reg_mask[reg]
                    g = (g & ~reg_all) | (1 << index)
                    k |= reg_all & ~(1 << index)
            gen[blk.label] = g
            kill[blk.label] = k & ~g

        problem = DataflowProblem(forward=True, may=True, gen=gen, kill=kill)
        self._solution = solve_dataflow(func, problem)

        # Per-use reaching defs, computed in one forward pass per block.
        self._use_defs: dict[tuple[int, int], tuple[int, ...]] = {}
        for blk in func.blocks:
            current = self._solution.in_facts[blk.label]
            for instr in blk.instructions:
                for pos, reg in enumerate(instr.uses):
                    if reg == ZERO:
                        self._use_defs[(instr.uid, pos)] = ()
                        continue
                    mask = current & self._reg_mask.get(reg, 0)
                    self._use_defs[(instr.uid, pos)] = tuple(_iter_bits(mask))
                for reg, index in zip(instr.defs, self._def_index.get(instr.uid, [])):
                    current = (current & ~self._reg_mask[reg]) | (1 << index)

    # ------------------------------------------------------------------
    def reaching_in(self, block_label: str) -> list[DefSite]:
        """Definition sites live on entry to ``block_label``."""
        mask = self._solution.in_facts[block_label]
        return [self.defs[i] for i in _iter_bits(mask)]

    def reaching_defs_of_use(self, instr: Instruction, use_pos: int) -> list[DefSite]:
        """Definition sites that may reach use operand ``use_pos`` of
        ``instr``.  Uses of ``$zero`` have no reaching definitions."""
        indices = self._use_defs.get((instr.uid, use_pos))
        if indices is None:
            raise KeyError(f"instruction {instr!r} use {use_pos} not in function")
        return [self.defs[i] for i in indices]

    def du_edges(self):
        """Yield ``(def_uid, use_uid, use_pos, reg)`` for every def-use
        pair in the function."""
        for blk in self.func.blocks:
            for instr in blk.instructions:
                for pos, reg in enumerate(instr.uses):
                    for index in self._use_defs[(instr.uid, pos)]:
                        site = self.defs[index]
                        yield site.uid, instr.uid, pos, reg

    def defs_of_reg(self, reg: Reg) -> list[DefSite]:
        """All definition sites of ``reg`` in the function."""
        mask = self._reg_mask.get(reg, 0)
        return [self.defs[i] for i in _iter_bits(mask)]


def _iter_bits(mask: int):
    """Indices of set bits in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
