"""The functional interpreter.

Executes an IR :class:`~repro.ir.program.Program` to completion with
MIPS-like semantics: 32-bit wrapping integer arithmetic, truncating
division, sparse byte/word memory, and the explicit-operand call model
(``call``/``param``/``ret``).

Every run collects a basic-block execution profile (the cost model's
input).  A run with ``collect_trace=True`` also records the dynamic
trace (the timing simulator's input), packed as it executes: each
dynamic instruction is a few appends to the columns of a
:class:`~repro.trace.pack.PackedTrace`, through a
:class:`~repro.trace.pack.TraceBuilder` that interns a static row the
first time a code position executes and a dependence token the first
time an activation touches a register.  Per-function code is
precompiled into flat instruction arrays with resolved jump targets,
global addresses, laid-out pcs and the register names each trace entry
reads and writes, keeping the dispatch loop tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

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
# precompiled function code
# ---------------------------------------------------------------------------


class _Code:
    """Flattened, target-resolved form of one function.

    Alongside each instruction it keeps what the traced run needs: the
    laid-out pc, the register names the trace entry reads and writes
    (``None`` writes for ``call``/``ret``, whose written token belongs
    to another activation and is emitted by the interpreter), and the
    ALU or branch function of its opcode (looked up once here rather
    than per execution).
    """

    __slots__ = (
        "func", "instrs", "start_of", "block_start_label", "resolved_imm",
        "pcs", "read_names", "write_names", "semantics",
    )

    def __init__(self, func: Function, program: Program, layout: ProgramLayout):
        self.func = func
        self.instrs: list[Instruction] = []
        self.start_of: dict[str, int] = {}
        self.block_start_label: list[str | None] = []
        self.resolved_imm: list[int | float | None] = []
        self.pcs: list[int] = []
        self.read_names: list[tuple[str, ...]] = []
        self.write_names: list[tuple[str, ...] | None] = []
        self.semantics: list[Callable | None] = []
        for blk in func.blocks:
            self.start_of[blk.label] = len(self.instrs)
            first = True
            for instr in blk.instructions:
                self.instrs.append(instr)
                self.block_start_label.append(blk.label if first else None)
                first = False
                imm = instr.imm
                if isinstance(imm, str):
                    imm = program.global_address(imm)
                self.resolved_imm.append(imm)
                self.semantics.append(_ALU.get(instr.op) or _BRANCH.get(instr.op))
                self.pcs.append(layout.pc_of[(func.name, instr.uid)])
                kind = instr.kind
                if kind is OpKind.PARAM:
                    self.read_names.append(("@args",))
                else:
                    self.read_names.append(
                        tuple(
                            r.name
                            for r in instr.uses
                            if r.name != "$zero" and r.name != "$sp"
                        )
                    )
                if kind is OpKind.CALL or kind is OpKind.RET:
                    self.write_names.append(None)
                else:
                    self.write_names.append(tuple(r.name for r in instr.defs))
            if first:  # empty block still needs a profile point
                self.instrs.append(Instruction(Opcode.NOP, uid=-2))
                self.block_start_label.append(blk.label)
                self.resolved_imm.append(None)
                self.semantics.append(None)
                self.pcs.append(-1)
                self.read_names.append(())
                self.write_names.append(())


class _Activation:
    """One function activation: registers plus a return point.

    A traced run also gives it the static-row ids of its code (shared by
    every activation of that code) and its register names' token ids.
    """

    __slots__ = (
        "code", "regs", "args", "frame_id", "index", "call_instr", "sp_restore",
        "rows", "tokens",
    )

    def __init__(self, code: _Code, args: list, frame_id: int):
        self.code = code
        self.regs: dict[str, int | float] = {}
        self.args = args
        self.frame_id = frame_id
        self.index = 0
        self.call_instr: Instruction | None = None
        self.sp_restore = 0
        self.rows: list[int] | None = None
        self.tokens: dict[str, int] = {}


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
            code = _Code(self.program.function(name), self.program, self.layout)
            self._code[name] = code
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
        builder = None
        if collect_trace:
            # the trace is packed as it is produced: static rows and
            # tokens are interned on first sight (per code position and
            # per activation), then every dynamic instruction is a few
            # appends to the pack's columns
            from repro.trace.pack import TraceBuilder

            builder = TraceBuilder()
            row_of = builder.row
            token_of = builder.token
            pack = builder.pack
            ids_append = pack.instr_ids.append
            mem_col, taken_col = pack.mem_addr, pack.taken
            mem_append, taken_append = mem_col.append, taken_col.append
            read_tokens, write_tokens = pack.read_tokens, pack.write_tokens
            rtok_append, wtok_append = read_tokens.append, write_tokens.append
            roff_append = pack.read_offsets.append
            woff_append = pack.write_offsets.append
            rows_of: dict[_Code, list[int]] = {}

        entry_name = entry or program.entry
        next_frame = 0
        act = _Activation(self.code_of(entry_name), [], next_frame)
        next_frame += 1
        if builder is not None:
            act.rows = rows_of[act.code] = [-1] * len(act.code.instrs)
        stack = [act]
        profile.record(entry_name, act.code.func.entry.label)

        executed = 0
        memory = state.memory
        result_value: int | None = None

        while True:
            code = act.code
            instrs = code.instrs
            index = act.index
            if index >= len(instrs):
                raise ExecutionError(
                    f"fell off the end of function {code.func.name}"
                )
            instr = instrs[index]
            op = instr.op
            kind = instr.kind

            if instr.uid == -2:  # synthetic NOP for an empty block
                act.index += 1
                nxt = act.index
                if nxt < len(instrs) and code.block_start_label[nxt]:
                    profile.record(code.func.name, code.block_start_label[nxt])
                continue

            executed += 1
            if executed > fuel:
                raise FuelExhausted(
                    f"exceeded fuel of {fuel} dynamic instructions"
                )

            regs = act.regs
            if builder is not None:
                rows = act.rows
                sid = rows[index]
                if sid < 0:
                    sid = rows[index] = row_of(
                        instr, code.pcs[index], bool(instr.info.fp_subsystem)
                    )
                ids_append(sid)
                mem_append(-1)
                taken_append(-1)
                tokens = act.tokens
                for name in code.read_names[index]:
                    tid = tokens.get(name)
                    if tid is None:
                        tid = tokens[name] = token_of(act.frame_id, name)
                    rtok_append(tid)
                roff_append(len(read_tokens))
                names = code.write_names[index]
                if names is not None:  # call/ret append their own writes
                    for name in names:
                        tid = tokens.get(name)
                        if tid is None:
                            tid = tokens[name] = token_of(act.frame_id, name)
                        wtok_append(tid)
                    woff_append(len(write_tokens))

            def read(reg):
                name = reg.name
                if name == "$zero":
                    return 0
                if name == "$sp":
                    return state.sp
                try:
                    return regs[name]
                except KeyError:
                    raise ExecutionError(
                        f"{code.func.name}: read of undefined register {name}"
                    ) from None

            next_index = index + 1

            if kind is OpKind.ALU or kind is OpKind.MUL or kind is OpKind.DIV or kind is OpKind.COPY:
                uses = instr.uses
                n = len(uses)
                if n == 2:
                    a, b = read(uses[0]), read(uses[1])
                elif n == 1:
                    a, b = read(uses[0]), code.resolved_imm[index]
                else:
                    a, b = 0, code.resolved_imm[index]
                regs[instr.defs[0].name] = code.semantics[index](a, b)
            elif kind is OpKind.LOAD:
                addr = read(instr.uses[0]) + (code.resolved_imm[index] or 0)
                if op is Opcode.LW or op is Opcode.LS:
                    value = memory.load_word(addr)
                elif op is Opcode.LB:
                    value = memory.load_byte(addr, signed=True)
                else:  # LBU
                    value = memory.load_byte(addr, signed=False)
                regs[instr.defs[0].name] = value
                if builder is not None:
                    mem_col[-1] = addr
            elif kind is OpKind.STORE:
                value = read(instr.uses[0])
                addr = read(instr.uses[1]) + (code.resolved_imm[index] or 0)
                if op is Opcode.SB:
                    memory.store_byte(addr, value)
                else:
                    memory.store_word(addr, value)
                if builder is not None:
                    mem_col[-1] = addr
            elif kind is OpKind.BRANCH:
                uses = instr.uses
                a = read(uses[0])
                b = read(uses[1]) if len(uses) == 2 else 0
                taken = code.semantics[index](a, b)
                if builder is not None:
                    taken_col[-1] = 1 if taken else 0
                if taken:
                    next_index = code.start_of[instr.target]
                    profile.record(code.func.name, instr.target)
                    act.index = next_index
                    continue
            elif kind is OpKind.JUMP:
                next_index = code.start_of[instr.target]
                profile.record(code.func.name, instr.target)
                act.index = next_index
                continue
            elif kind is OpKind.PARAM:
                regs[instr.defs[0].name] = act.args[instr.imm]
            elif kind is OpKind.CALL:
                args = [read(r) for r in instr.uses]
                callee = self.code_of(instr.target)
                act.index = index  # resume here; RET advances past it
                new_act = _Activation(callee, args, next_frame)
                next_frame += 1
                new_act.call_instr = instr
                new_act.sp_restore = state.sp
                state.sp -= callee.func.frame_size
                stack.append(new_act)
                if builder is not None:
                    rows = rows_of.get(callee)
                    if rows is None:
                        rows = rows_of[callee] = [-1] * len(callee.instrs)
                    new_act.rows = rows
                    tid = new_act.tokens["@args"] = token_of(new_act.frame_id, "@args")
                    wtok_append(tid)
                    woff_append(len(write_tokens))
                profile.record(instr.target, callee.func.entry.label)
                act = new_act
                continue
            elif kind is OpKind.RET:
                value = read(instr.uses[0]) if instr.uses else None
                state.sp = act.sp_restore
                finished = stack.pop()
                if not stack:
                    result_value = value
                    if builder is not None:
                        woff_append(len(write_tokens))
                    break
                caller = stack[-1]
                call_instr = finished.call_instr
                if call_instr is not None and call_instr.defs:
                    name = call_instr.defs[0].name
                    caller.regs[name] = value
                    if builder is not None:
                        tid = caller.tokens.get(name)
                        if tid is None:
                            tid = caller.tokens[name] = token_of(caller.frame_id, name)
                        wtok_append(tid)
                if builder is not None:
                    woff_append(len(write_tokens))
                act = caller
                act.index += 1
                nxt = act.index
                code = act.code
                if nxt < len(code.instrs) and code.block_start_label[nxt]:
                    profile.record(code.func.name, code.block_start_label[nxt])
                continue
            elif kind is OpKind.NOP:
                pass
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unhandled opcode {op}")

            act.index = next_index
            if next_index < len(instrs) and code.block_start_label[next_index]:
                profile.record(code.func.name, code.block_start_label[next_index])

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
