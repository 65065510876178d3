"""Local common-subexpression elimination (value numbering).

Within a basic block, pure computations (``ALU``/``MUL``/``DIV`` — loads
are excluded because memory may change) with operands that have not been
redefined are reused: the recomputation becomes a ``move`` from the
first result, which copy propagation and DCE then clean up.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.opcodes import Opcode, OpKind
from repro.ir.registers import Reg, RegClass

_PURE_KINDS = (OpKind.ALU, OpKind.MUL, OpKind.DIV)

_Key = tuple  # (opcode, use names, immediate)


def local_cse(func: Function) -> int:
    """Eliminate local common subexpressions; returns replacements made."""
    changed = 0
    for blk in func.blocks:
        available: dict[_Key, Reg] = {}
        uses_of: dict[Reg, list[_Key]] = {}
        keys_of: dict[Reg, list[_Key]] = {}  # result register -> its keys
        for instr in blk.instructions:
            key = None
            if instr.kind in _PURE_KINDS and instr.defs:
                key = (instr.op, tuple(r.name for r in instr.uses), instr.imm)
                existing = available.get(key)
                if existing is not None and existing != instr.defs[0]:
                    move = Opcode.MOV_S if existing.rclass is RegClass.FP else Opcode.MOVE
                    if instr.defs[0].rclass is existing.rclass:
                        instr.op = move
                        instr.uses = [existing]
                        instr.imm = None
                        changed += 1
                        key = None  # the rewritten move defines nothing new
            # invalidate expressions that used the redefined registers
            for d in instr.defs:
                for stale_key in uses_of.pop(d, []):
                    available.pop(stale_key, None)
                for stale_key in keys_of.pop(d, []):
                    if available.get(stale_key) == d:  # not re-bound since
                        del available[stale_key]
            # record this expression as available
            if key is not None:
                available[key] = instr.defs[0]
                keys_of.setdefault(instr.defs[0], []).append(key)
                for use in instr.uses:
                    uses_of.setdefault(use, []).append(key)
    return changed
