"""Structural verification of IR.

The verifier catches the mistakes that are cheap to make while building or
rewriting IR and expensive to debug downstream: wrong operand counts,
register-class mismatches against the opcode's subsystem, control
instructions in the middle of a block, branches to unknown labels, calls
to unknown functions with the wrong arity, and uses of the hard-wired
zero register as a destination.

The per-operand register-class rules live in :func:`expected_def_class`
and :func:`expected_use_class` so that the partition linter
(:mod:`repro.lint`) checks flow-level facts against exactly the same
class table the structural verifier enforces point-wise.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode, OpKind
from repro.ir.program import Program
from repro.ir.registers import RegClass, ZERO


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise IRError(message)


def expected_def_class(instr: Instruction, func: Function) -> RegClass | None:
    """Register class the destination must have, or None if unconstrained."""
    op, info = instr.op, instr.info
    if op is Opcode.CP_TO_COMP:
        return RegClass.FP
    if op is Opcode.CP_FROM_COMP:
        return RegClass.INT
    if op is Opcode.LS:
        return RegClass.FP
    if info.kind is OpKind.LOAD:
        return RegClass.INT
    if info.kind is OpKind.PARAM:
        # standard convention is INT; the interprocedural extension may
        # receive selected parameters directly in FP registers
        return RegClass.FP if instr.imm in func.fp_params else RegClass.INT
    if info.kind is OpKind.CALL:
        return RegClass.INT  # return values always cross in INT registers
    if info.kind in (OpKind.ALU, OpKind.MUL, OpKind.DIV):
        return RegClass.FP if info.fp_subsystem else RegClass.INT
    return None


def expected_use_class(
    instr: Instruction,
    pos: int,
    callee_fp_params: set[int] | None = None,
) -> RegClass | None:
    """Register class use operand ``pos`` must have, or None if unconstrained.

    For ``call`` instructions the argument classes depend on the callee:
    pass the callee's ``fp_params`` set when it is known, or None to
    leave call arguments unconstrained (intra-function checking).
    """
    op, info = instr.op, instr.info
    kind = info.kind
    if op is Opcode.CP_TO_COMP:
        return RegClass.INT  # source is read from the integer file
    if op is Opcode.CP_FROM_COMP:
        return RegClass.FP  # source is read from the FP file
    if kind is OpKind.LOAD:
        return RegClass.INT  # the single use is the base address
    if kind is OpKind.STORE:
        if pos == 1:
            return RegClass.INT  # base address
        return RegClass.FP if op is Opcode.SS else RegClass.INT  # value
    if kind is OpKind.CALL:
        if callee_fp_params is None:
            return None
        return RegClass.FP if pos in callee_fp_params else RegClass.INT
    if kind is OpKind.RET:
        return RegClass.INT  # return values always cross in INT registers
    if kind in (OpKind.ALU, OpKind.MUL, OpKind.DIV, OpKind.BRANCH):
        return RegClass.FP if info.fp_subsystem else RegClass.INT
    return None


def _use_class_message(instr: Instruction, pos: int, want: RegClass) -> str:
    """Error text for a use-class violation, kept specific per operand role."""
    kind = instr.kind
    if kind is OpKind.LOAD:
        return f"load base must be {want.name}-class"
    if kind is OpKind.STORE:
        role = "base" if pos == 1 else "value"
        return f"store {role} must be {want.name}-class"
    if kind is OpKind.RET:
        return f"return value must be {want.name}-class"
    return f"use {instr.uses[pos]} must be {want.name}-class for {instr.op}"


def _instruction_problem(
    instr: Instruction, func: Function, labels: set[str]
) -> str | None:
    """The first structural problem of one instruction, or None."""
    info = instr.info
    if info.n_uses >= 0 and len(instr.uses) != info.n_uses:
        return f"expected {info.n_uses} uses"
    if info.n_defs >= 0 and len(instr.defs) != info.n_defs:
        return f"expected {info.n_defs} defs"
    if info.has_imm and instr.imm is None:
        return "missing immediate"
    if info.has_target and instr.target is None:
        return "missing target"

    for d in instr.defs:
        if d == ZERO:
            return "writes $zero"

    expected = expected_def_class(instr, func)
    if expected is not None:
        for d in instr.defs:
            if d.rclass is not expected:
                return f"def {d} must be {expected.name}-class"

    if info.kind is OpKind.RET and len(instr.uses) > 1:
        return "ret takes at most one value"

    # use-class constraints, one shared table for every operand position
    # (call arguments are callee-dependent and checked in verify_function)
    for pos, use in enumerate(instr.uses):
        want = expected_use_class(instr, pos)
        if want is not None and use.rclass is not want:
            return _use_class_message(instr, pos, want)

    if (
        info.has_target
        and info.kind in (OpKind.BRANCH, OpKind.JUMP)
        and instr.target not in labels
    ):
        return f"branch to unknown label {instr.target!r}"
    return None


def verify_instruction(instr: Instruction, func: Function, labels: set[str]) -> None:
    """Verify one instruction in the context of its function."""
    problem = _instruction_problem(instr, func, labels)
    if problem is not None:
        # the printed instruction is only worth formatting on failure
        raise IRError(f"{func.name}: {instr!r}: {problem}")


def verify_function(func: Function, program: Program | None = None) -> None:
    """Verify block structure and every instruction of ``func``."""
    _check(bool(func.blocks), f"{func.name}: function has no blocks")
    labels = {blk.label for blk in func.blocks}
    _check(len(labels) == len(func.blocks), f"{func.name}: duplicate block labels")

    seen_uids: set[int] = set()
    for blk in func.blocks:
        for i, instr in enumerate(blk.instructions):
            _check(instr.uid >= 0, f"{func.name}: unattached instruction in {blk.label}")
            _check(instr.uid not in seen_uids, f"{func.name}: duplicate uid {instr.uid}")
            seen_uids.add(instr.uid)
            if instr.is_control:
                _check(
                    i == len(blk.instructions) - 1,
                    f"{func.name}: control instruction mid-block in {blk.label}",
                )
            verify_instruction(instr, func, labels)

    params = func.params()
    _check(
        len(params) == func.n_params,
        f"{func.name}: expected {func.n_params} param instructions, found {len(params)}",
    )
    indices = sorted(p.imm for p in params)
    _check(
        indices == list(range(func.n_params)),
        f"{func.name}: param indices must be 0..{func.n_params - 1}",
    )
    for blk in func.blocks[1:]:
        for instr in blk.instructions:
            _check(
                instr.kind is not OpKind.PARAM,
                f"{func.name}: param instruction outside the entry block",
            )

    if program is not None:
        for instr in func.instructions():
            if instr.kind is OpKind.CALL:
                _check(
                    instr.target in program.functions,
                    f"{func.name}: call to unknown function {instr.target!r}",
                )
                callee = program.functions[instr.target]
                _check(
                    len(instr.uses) == callee.n_params,
                    f"{func.name}: call to {instr.target} with {len(instr.uses)} args, "
                    f"expected {callee.n_params}",
                )
                for pos, use in enumerate(instr.uses):
                    want = expected_use_class(instr, pos, callee.fp_params)
                    _check(
                        use.rclass is want,
                        f"{func.name}: argument {pos} of call to {instr.target} "
                        f"must be {want.name}-class",
                    )
                if instr.defs:
                    _check(
                        callee.returns_value,
                        f"{func.name}: {instr.target} does not return a value",
                    )
            if isinstance(instr.imm, str):
                _check(
                    instr.imm in program.globals,
                    f"{func.name}: reference to unknown global {instr.imm!r}",
                )


def verify_program(program: Program) -> None:
    """Verify every function plus whole-program properties."""
    _check(program.entry in program.functions, f"entry {program.entry!r} not defined")
    entry = program.functions[program.entry]
    _check(entry.n_params == 0, "entry function must take no parameters")
    for func in program.functions.values():
        verify_function(func, program)
