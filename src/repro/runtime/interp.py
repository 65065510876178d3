"""The functional interpreter.

Executes an IR :class:`~repro.ir.program.Program` to completion with
MIPS-like semantics: 32-bit wrapping integer arithmetic, truncating
division, sparse byte/word memory, and the explicit-operand call model
(``call``/``param``/``ret``).

Each function is decoded once, on its first call, into a *step table*
(:class:`_Code`): one flat tuple per code position,
``(kind, block, a, b, c, fn, target)``.  ``kind`` is a small int; ``a``
is the register the step writes (a store's value register), ``b`` and
``c`` its source registers or resolved immediate; ``fn`` is the opcode's
``_ALU``/``_BRANCH`` function, looked up once; ``target`` is a branch or
jump target already resolved to a position.  The run loop dispatches on
the kind and reads registers straight from the activation's dict:

* Every activation's dict is seeded with ``$zero`` = 0 and ``$sp`` = its
  stack pointer.  ``$sp`` is constant for an activation's lifetime: it
  only changes at ``call`` and is restored at ``ret``.  A write to
  ``$zero`` or ``$sp`` decodes to a discard slot, so a read of ``$zero``
  yields 0 and a read of ``$sp`` the stack pointer even in a program
  that writes them (:func:`~repro.ir.verify.verify_program` rejects
  writes to ``$zero``, but unverified programs can reach
  :func:`run_program`).  A one-source branch decodes ``$zero`` as its
  second source, and an ALU op without sources as its first.
* ``block`` is the ``(function, label)`` profile key at a block's first
  position and None elsewhere; the count goes into the profile as the
  position starts, so block counts keep their insertion order.
* Two step kinds are not instructions, and the loop recognises them
  inside its block-entry test, so they cost instructions nothing: an
  empty block's entry, and a *trap* — falling off the end of a function,
  a branch to a missing label, a reference to a missing global — whose
  ``block`` holds its error message and which raises only if executed.
  A call of a missing function likewise raises :class:`ExecutionError`
  when it executes.  Register reads are then the loop's only lookups
  that can miss, and a miss is reported as a read of an undefined
  register.

Every run collects a basic-block execution profile (the cost model's
input).  A run with ``collect_trace=True`` also records the dynamic
trace (the timing simulator's input), packed as it executes: each
dynamic instruction is a few appends to the columns of a
:class:`~repro.trace.pack.PackedTrace`, through a
:class:`~repro.trace.pack.TraceBuilder` that interns a static row the
first time a code position executes and a dependence token the first
time an activation touches a register.  Beside the step table,
:class:`_Code` keeps per position what a trace entry needs: the static
row's key (instruction, laid-out pc, FP side) and the register names
the entry reads and writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ExecutionError, FuelExhausted
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode, OpKind
from repro.ir.program import Program
from repro.partition.cost import ExecutionProfile
from repro.runtime.state import MachineState, s32
from repro.runtime.trace import ProgramLayout

if TYPE_CHECKING:
    from repro.trace.pack import PackedTrace

# ---------------------------------------------------------------------------
# opcode semantics
# ---------------------------------------------------------------------------


def _div(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("integer division by zero")
    q = abs(a) // abs(b)
    return s32(-q if (a < 0) != (b < 0) else q)


def _rem(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("integer remainder by zero")
    return s32(a - _div(a, b) * b)


def _u32(a: int) -> int:
    return a & 0xFFFFFFFF


def _cvt_w_s(a: float) -> int:
    # MIPS cvt.w.s: non-finite inputs don't trap, they produce the IEEE
    # invalid-operation default (saturated max for +/-inf, 0 for NaN);
    # finite values truncate and wrap like the rest of the integer ALU
    if a != a:  # NaN
        return 0
    if a == float("inf"):
        return 0x7FFFFFFF
    if a == float("-inf"):
        return -0x80000000
    return s32(int(a))


_ALU = {
    Opcode.ADDU: lambda a, b: s32(a + b),
    Opcode.SUBU: lambda a, b: s32(a - b),
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: s32(a ^ b),
    Opcode.NOR: lambda a, b: s32(~(a | b)),
    Opcode.SLT: lambda a, b: int(a < b),
    Opcode.SLTU: lambda a, b: int(_u32(a) < _u32(b)),
    Opcode.SLLV: lambda a, b: s32(a << (b & 31)),
    Opcode.SRLV: lambda a, b: s32(_u32(a) >> (b & 31)),
    Opcode.SRAV: lambda a, b: s32(a >> (b & 31)),
    Opcode.ADDIU: lambda a, b: s32(a + b),
    Opcode.ANDI: lambda a, b: a & b,
    Opcode.ORI: lambda a, b: a | b,
    Opcode.XORI: lambda a, b: s32(a ^ b),
    Opcode.SLTI: lambda a, b: int(a < b),
    Opcode.SLTIU: lambda a, b: int(_u32(a) < _u32(b)),
    Opcode.SLL: lambda a, b: s32(a << (b & 31)),
    Opcode.SRL: lambda a, b: s32(_u32(a) >> (b & 31)),
    Opcode.SRA: lambda a, b: s32(a >> (b & 31)),
    Opcode.LUI: lambda a, b: s32(b << 16),
    Opcode.LI: lambda a, b: b,
    Opcode.MOVE: lambda a, b: a,
    Opcode.MULT: lambda a, b: s32(a * b),
    Opcode.DIV: _div,
    Opcode.REM: _rem,
    # floating point
    Opcode.ADD_S: lambda a, b: a + b,
    Opcode.SUB_S: lambda a, b: a - b,
    Opcode.MUL_S: lambda a, b: a * b,
    Opcode.DIV_S: lambda a, b: a / b if b != 0.0 else float("inf") if a > 0 else float("-inf") if a < 0 else float("nan"),
    Opcode.NEG_S: lambda a, b: -a,
    Opcode.MOV_S: lambda a, b: a,
    Opcode.LI_S: lambda a, b: float(b),
    Opcode.CVT_S_W: lambda a, b: float(a),
    Opcode.CVT_W_S: lambda a, b: _cvt_w_s(a),
    # copies
    Opcode.CP_TO_COMP: lambda a, b: a,
    Opcode.CP_FROM_COMP: lambda a, b: a,
}
# FPa twins share the integer semantics
_ALU.update(
    {
        Opcode.ADDU_A: _ALU[Opcode.ADDU],
        Opcode.SUBU_A: _ALU[Opcode.SUBU],
        Opcode.AND_A: _ALU[Opcode.AND],
        Opcode.OR_A: _ALU[Opcode.OR],
        Opcode.XOR_A: _ALU[Opcode.XOR],
        Opcode.SLT_A: _ALU[Opcode.SLT],
        Opcode.SLTU_A: _ALU[Opcode.SLTU],
        Opcode.SLLV_A: _ALU[Opcode.SLLV],
        Opcode.SRAV_A: _ALU[Opcode.SRAV],
        Opcode.ADDIU_A: _ALU[Opcode.ADDIU],
        Opcode.ANDI_A: _ALU[Opcode.ANDI],
        Opcode.SLTI_A: _ALU[Opcode.SLTI],
        Opcode.SLTIU_A: _ALU[Opcode.SLTIU],
        Opcode.SLL_A: _ALU[Opcode.SLL],
        Opcode.SRL_A: _ALU[Opcode.SRL],
        Opcode.SRA_A: _ALU[Opcode.SRA],
        Opcode.LI_A: _ALU[Opcode.LI],
        Opcode.MOVE_A: _ALU[Opcode.MOVE],
    }
)

_BRANCH = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLEZ: lambda a, b: a <= 0,
    Opcode.BGTZ: lambda a, b: a > 0,
    Opcode.BLTZ: lambda a, b: a < 0,
    Opcode.BGEZ: lambda a, b: a >= 0,
    Opcode.BEQ_S: lambda a, b: a == b,
    Opcode.BNE_S: lambda a, b: a != b,
    Opcode.BLT_S: lambda a, b: a < b,
    Opcode.BLE_S: lambda a, b: a <= b,
}
_BRANCH.update(
    {
        Opcode.BEQ_A: _BRANCH[Opcode.BEQ],
        Opcode.BNE_A: _BRANCH[Opcode.BNE],
        Opcode.BLEZ_A: _BRANCH[Opcode.BLEZ],
        Opcode.BLTZ_A: _BRANCH[Opcode.BLTZ],
    }
)


# ---------------------------------------------------------------------------
# step tables
# ---------------------------------------------------------------------------

# Step kinds, in the run loop's dispatch order (most frequent first); the
# two that are not instructions come last.
_ALU_RI = 0  # a = fn(r[b], c)
_ALU_RR = 1  # a = fn(r[b], r[c])
_BR = 2  # if fn(r[b], r[c]): go to target
_SW = 3  # word at r[b] + c = r[a]  (sw, s.s)
_J = 4  # go to target
_LW = 5  # a = word at r[b] + c  (lw, l.s)
_PARAM = 6  # a = argument c
_CALL = 7  # a = call of function fn with arguments r[b...]
_RET = 8  # return r[b], or nothing if b is None
_LB = 9  # a = byte at r[b] + c, sign-extended if fn  (lb, lbu)
_SB = 10  # byte at r[b] + c = r[a]
_NOP = 11
_SKIP = 12  # an empty block's entry: count it, go to the next position
_TRAP = 13  # raise ExecutionError(block)

#: Where writes to ``$zero`` and ``$sp`` go: a key no read names.
_DISCARD = None


def _step(
    instr: Instruction, block: tuple[str, str] | None, program: Program, target_of
) -> tuple:
    """The step tuple of one instruction (see the module docstring)."""
    op = instr.op
    kind = op.info.kind
    uses = [reg.name for reg in instr.uses]
    a = instr.defs[0].name if instr.defs else _DISCARD
    if a == "$zero" or a == "$sp":
        a = _DISCARD
    imm = instr.imm
    if isinstance(imm, str):
        if imm not in program.globals:
            return (_TRAP, f"reference to undefined global {imm}", None, None, None, None, None)
        imm = program.global_address(imm)
    if kind is OpKind.ALU or kind is OpKind.MUL or kind is OpKind.DIV or kind is OpKind.COPY:
        if len(uses) == 2:
            return (_ALU_RR, block, a, uses[0], uses[1], _ALU.get(op), None)
        b = uses[0] if len(uses) == 1 else "$zero"
        return (_ALU_RI, block, a, b, imm, _ALU.get(op), None)
    if kind is OpKind.LOAD:
        if op is Opcode.LW or op is Opcode.LS:
            return (_LW, block, a, uses[0], imm or 0, None, None)
        return (_LB, block, a, uses[0], imm or 0, op is Opcode.LB, None)
    if kind is OpKind.STORE:
        step = _SB if op is Opcode.SB else _SW
        return (step, block, uses[0], uses[1], imm or 0, None, None)
    if kind is OpKind.BRANCH:
        c = uses[1] if len(uses) == 2 else "$zero"
        return (_BR, block, None, uses[0], c, _BRANCH.get(op), target_of(instr.target))
    if kind is OpKind.JUMP:
        return (_J, block, None, None, None, None, target_of(instr.target))
    if kind is OpKind.PARAM:
        return (_PARAM, block, a, None, imm, None, None)
    if kind is OpKind.CALL:
        return (_CALL, block, a, tuple(uses), None, instr.target, None)
    if kind is OpKind.RET:
        return (_RET, block, None, uses[0] if uses else None, None, None, None)
    if kind is OpKind.NOP:
        return (_NOP, block, None, None, None, None, None)
    return (_TRAP, f"unhandled opcode {op}", None, None, None, None, None)


class _Code:
    """One function decoded into a step table (see the module docstring).

    ``trace`` holds, per instruction position, what its trace entry
    needs: the arguments of :meth:`~repro.trace.pack.TraceBuilder.row`
    (instruction, laid-out pc, FP side), and the register names the
    entry reads and writes (``None`` writes for ``call``/``ret``, whose
    written token belongs to another activation and is emitted by the
    run loop).  Empty-block entries and the traps after the last block
    have ``None``.
    """

    __slots__ = ("func", "steps", "trace")

    def __init__(self, func: Function, program: Program, layout: ProgramLayout):
        self.func = func
        name = func.name
        start_of: dict[str, int] = {}
        end = 0
        for blk in func.blocks:
            start_of[blk.label] = end
            end += len(blk.instructions) or 1
        # the step at ``end`` traps falling off the end; traps for
        # branches to missing labels follow it
        traps = [f"fell off the end of function {name}"]

        def target_of(label: str) -> int:
            index = start_of.get(label)
            if index is None:
                index = end + len(traps)
                start_of[label] = index
                traps.append(f"{name}: branch to undefined label {label}")
            return index

        self.steps: list[tuple] = []
        self.trace: list[tuple | None] = []
        for blk in func.blocks:
            block: tuple[str, str] | None = (name, blk.label)
            if not blk.instructions:
                self.steps.append((_SKIP, block, None, None, None, None, None))
                self.trace.append(None)
            for instr in blk.instructions:
                self.steps.append(_step(instr, block, program, target_of))
                block = None
                kind = instr.kind
                if kind is OpKind.PARAM:
                    reads: tuple[str, ...] = ("@args",)
                else:
                    reads = tuple(
                        r.name for r in instr.uses if r.name != "$zero" and r.name != "$sp"
                    )
                if kind is OpKind.CALL or kind is OpKind.RET:
                    writes = None
                else:
                    writes = tuple(r.name for r in instr.defs)
                row = (instr, layout.pc_of[(name, instr.uid)], bool(instr.info.fp_subsystem))
                self.trace.append((row, reads, writes))
        for message in traps:
            self.steps.append((_TRAP, message, None, None, None, None, None))
            self.trace.append(None)


class _Tokens(dict):
    """One activation's register names -> dependence-token ids, interned
    through the trace builder on first use."""

    __slots__ = ("frame", "intern")

    def __init__(self, frame: int, intern) -> None:
        super().__init__()
        self.frame = frame
        self.intern = intern

    def __missing__(self, name: str) -> int:
        tid = self[name] = self.intern(self.frame, name)
        return tid


@dataclass(eq=False, slots=True)
class RunResult:
    """Outcome of one program run."""

    value: int | None
    instructions: int
    profile: ExecutionProfile
    #: The dynamic trace, when the run was asked to collect one.
    packed: PackedTrace | None
    state: MachineState


class Interpreter:
    """Executes a program; see :func:`run_program` for the usual entry."""

    def __init__(self, program: Program):
        program.layout()
        self.program = program
        self.layout = ProgramLayout(program)
        self._code: dict[str, _Code] = {}

    def code_of(self, name: str) -> _Code:
        code = self._code.get(name)
        if code is None:
            func = self.program.functions.get(name)
            if func is None:
                raise ExecutionError(f"call of undefined function {name}")
            code = self._code[name] = _Code(func, self.program, self.layout)
        return code

    def run(
        self,
        entry: str | None = None,
        fuel: int = 50_000_000,
        collect_trace: bool = False,
        profile: ExecutionProfile | None = None,
    ) -> RunResult:
        """Run to completion (the entry function's ``ret``).

        Args:
            entry: Function to start in (defaults to the program entry).
            fuel: Dynamic-instruction budget; exceeded -> FuelExhausted.
            collect_trace: Whether to record a full dynamic trace.
            profile: Profile to accumulate into (fresh one if None).

        Returns:
            A :class:`RunResult`.
        """
        program = self.program
        state = MachineState(program)
        if profile is None:
            profile = ExecutionProfile()
        counts = profile.counts
        memory = state.memory
        load_word, store_word = memory.load_word, memory.store_word
        load_byte, store_byte = memory.load_byte, memory.store_byte
        code_of = self.code_of

        # the current activation lives in locals; ``stack`` holds each
        # caller's (code, position of its call, regs, args, tokens, rows)
        code = code_of(entry or program.entry)
        steps, trace = code.steps, code.trace
        index = 0
        regs: dict = {"$zero": 0, "$sp": state.sp}
        args: list = []
        stack: list[tuple] = []
        next_frame = 1
        executed = 0
        result_value = None

        # a traced run packs as it goes: static rows are interned on
        # first sight per code position (``rows``, shared by every
        # activation of that code), tokens per activation (``tokens``),
        # then every dynamic instruction is a few appends to the columns
        builder = rows = tokens = None
        if collect_trace:
            from repro.trace.pack import TraceBuilder

            builder = TraceBuilder()
            row_of, token_of = builder.row, builder.token
            pack = builder.pack
            ids_append = pack.instr_ids.append
            mem_col, taken_col = pack.mem_addr, pack.taken
            mem_append, taken_append = mem_col.append, taken_col.append
            read_tokens, write_tokens = pack.read_tokens, pack.write_tokens
            rtok_append, wtok_append = read_tokens.append, write_tokens.append
            roff_append = pack.read_offsets.append
            woff_append = pack.write_offsets.append
            rows_of: dict[_Code, list[int]] = {}
            rows = rows_of[code] = [-1] * len(steps)
            tokens = _Tokens(0, token_of)

        try:
            while True:
                kind, block, a, b, c, fn, target = steps[index]
                if block is not None:
                    if kind >= _SKIP:
                        if kind == _TRAP:
                            raise ExecutionError(block)
                        counts[block] = counts.get(block, 0.0) + 1.0
                        index += 1
                        continue
                    counts[block] = counts.get(block, 0.0) + 1.0

                executed += 1
                if executed > fuel:
                    raise FuelExhausted(f"exceeded fuel of {fuel} dynamic instructions")

                if rows is not None:
                    row, reads, writes = trace[index]
                    sid = rows[index]
                    if sid < 0:
                        sid = rows[index] = row_of(*row)
                    ids_append(sid)
                    mem_append(-1)
                    taken_append(-1)
                    for name in reads:
                        rtok_append(tokens[name])
                    roff_append(len(read_tokens))
                    if writes is not None:  # call/ret append their own
                        for name in writes:
                            wtok_append(tokens[name])
                        woff_append(len(write_tokens))

                if kind == _ALU_RI:
                    regs[a] = fn(regs[b], c)
                elif kind == _ALU_RR:
                    regs[a] = fn(regs[b], regs[c])
                elif kind == _BR:
                    if fn(regs[b], regs[c]):
                        if rows is not None:
                            taken_col[-1] = 1
                        index = target
                        continue
                    if rows is not None:
                        taken_col[-1] = 0
                elif kind == _SW:
                    value = regs[a]
                    addr = regs[b] + c
                    store_word(addr, value)
                    if rows is not None:
                        mem_col[-1] = addr
                elif kind == _J:
                    index = target
                    continue
                elif kind == _LW:
                    addr = regs[b] + c
                    regs[a] = load_word(addr)
                    if rows is not None:
                        mem_col[-1] = addr
                elif kind == _PARAM:
                    regs[a] = args[c]
                elif kind == _CALL:
                    call_args = [regs[name] for name in b]
                    callee = code_of(fn)
                    stack.append((code, index, regs, args, tokens, rows))
                    code = callee
                    steps, trace = code.steps, code.trace
                    index = 0
                    state.sp -= code.func.frame_size
                    regs = {"$zero": 0, "$sp": state.sp}
                    args = call_args
                    if rows is not None:
                        rows = rows_of.get(code)
                        if rows is None:
                            rows = rows_of[code] = [-1] * len(steps)
                        tokens = _Tokens(next_frame, token_of)
                        wtok_append(tokens["@args"])
                        woff_append(len(write_tokens))
                    next_frame += 1
                    continue
                elif kind == _RET:
                    value = None if b is None else regs[b]
                    if not stack:
                        result_value = value
                        if rows is not None:
                            woff_append(len(write_tokens))
                        break
                    code, index, regs, args, tokens, rows = stack.pop()
                    steps, trace = code.steps, code.trace
                    state.sp = regs["$sp"]
                    a = steps[index][2]  # the call's destination
                    if a is not _DISCARD:
                        regs[a] = value
                    if rows is not None:
                        call = trace[index][0][0]  # its row key's instruction
                        if call.defs:
                            wtok_append(tokens[call.defs[0].name])
                        woff_append(len(write_tokens))
                elif kind == _LB:
                    addr = regs[b] + c
                    regs[a] = load_byte(addr, fn)
                    if rows is not None:
                        mem_col[-1] = addr
                elif kind == _SB:
                    value = regs[a]
                    addr = regs[b] + c
                    store_byte(addr, value)
                    if rows is not None:
                        mem_col[-1] = addr
                # else _NOP

                index += 1
        except KeyError as exc:  # only a register read can miss
            raise ExecutionError(
                f"{code.func.name}: read of undefined register {exc.args[0]}"
            ) from None

        return RunResult(
            value=result_value,
            instructions=executed,
            profile=profile,
            packed=None if builder is None else builder.finish(value=result_value),
            state=state,
        )


def run_program(
    program: Program,
    entry: str | None = None,
    fuel: int = 50_000_000,
    collect_trace: bool = False,
    profile: ExecutionProfile | None = None,
) -> RunResult:
    """Convenience wrapper: build an :class:`Interpreter` and run."""
    return Interpreter(program).run(
        entry=entry, fuel=fuel, collect_trace=collect_trace, profile=profile
    )
