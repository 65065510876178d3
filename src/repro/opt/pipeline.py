"""Optimization pipeline driver.

Runs the standard pass sequence to a fixed point (bounded):
constant folding -> copy propagation -> local CSE -> copy propagation ->
DCE -> jump simplification.

A round ends the loop when no pass reports a change, or when the
function's IR is exactly what the round started from.  The second
case is real: constant folding turns ``move v, c`` (``c`` holding a
constant) into ``li v, k`` and local CSE turns it back, so both report
a change every round while the IR stands still.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.program import Program
from repro.opt.coalesce import coalesce_moves
from repro.opt.constfold import fold_constants
from repro.opt.copyprop import propagate_copies
from repro.opt.cse import local_cse
from repro.opt.dce import eliminate_dead_code
from repro.opt.jumpopt import simplify_jumps
from repro.opt.remat import rematerialize_constants

_MAX_ROUNDS = 8


def _snapshot(func: Function) -> list:
    """The function's IR as the passes see it: block labels and order,
    and each instruction's opcode, operands, immediate and target."""
    return [
        (
            blk.label,
            [
                (i.op, tuple(i.defs), tuple(i.uses), i.imm, i.target)
                for i in blk.instructions
            ],
        )
        for blk in func.blocks
    ]


def optimize_function(func: Function) -> int:
    """Optimize one function; returns the total number of changes."""
    total = 0
    before = _snapshot(func)
    for _ in range(_MAX_ROUNDS):
        changed = fold_constants(func)
        changed += propagate_copies(func)
        changed += local_cse(func)
        changed += propagate_copies(func)
        changed += coalesce_moves(func)
        changed += eliminate_dead_code(func)
        changed += simplify_jumps(func)
        total += changed
        if not changed:
            break
        after = _snapshot(func)
        if after == before:
            break  # the round's changes cancelled out: a fixed point
        before = after
    # Run once at the end: CSE inside the loop would re-merge the clones.
    total += rematerialize_constants(func)
    func.renumber()
    return total


def optimize_program(program: Program) -> int:
    """Optimize every function of ``program``."""
    return sum(optimize_function(f) for f in program.functions.values())
