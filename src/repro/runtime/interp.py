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
trace (the timing simulator's input), packed as it executes by a
:class:`~repro.trace.pack.TraceBuilder` a straight-line *segment* at a
time.  A segment (:class:`_Segment`) starts at a block's first
instruction or just after a call or control instruction, and ends with
the first call, branch, jump or ``ret``, or at the end of its block;
once started it runs to its end, or the run raises and returns no
trace.

* When a segment starts, the loop makes one ``array.extend`` of each of
  ``instr_ids``, ``mem_addr``, ``taken``, ``read_tokens``,
  ``write_tokens`` and the builder's per-entry read and write token
  counts.  The static row ids are interned the first time the run
  executes the segment (:class:`_Rows`); ``mem_addr`` and ``taken`` get
  ``-1`` templates; the token ids come from a per-activation cache
  (:class:`_Frame`) built from the activation's register -> token map
  (:class:`_Tokens`), which interns a token the first time an
  activation touches a register.
* Loads and stores then patch their own ``mem_addr`` slot, and the
  segment's closing branch sets ``taken[-1]``.  ``call`` and ``ret``
  append the one token they write into another activation: the
  callee's ``@args``, and the caller's result register, for which a
  ``ret`` also raises its write count from 0 to 1.
* Block entries start most segments.  The return to a mid-block call
  site starts one, and so does the fall-through past a mid-block branch
  (only an unverified program has one).
* The offset columns are running sums of the count columns, derived
  when the builder finishes.

An untraced run tests for a trace only at block entries, memory
operations, branches, calls and returns, never once per instruction.
"""

from __future__ import annotations

from array import array
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
_CALL = 7  # a = call of function fn with arguments r[b...]; c names a as written
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
        # ``c`` names the destination as written, for its trace token
        dest = instr.defs[0].name if instr.defs else None
        return (_CALL, block, a, tuple(uses), dest, instr.target, None)
    if kind is OpKind.RET:
        return (_RET, block, None, uses[0] if uses else None, None, None, None)
    if kind is OpKind.NOP:
        return (_NOP, block, None, None, None, None, None)
    return (_TRAP, f"unhandled opcode {op}", None, None, None, None, None)


#: Instruction kinds that end a straight-line segment.
_ENDS_SEGMENT = (OpKind.CALL, OpKind.BRANCH, OpKind.JUMP, OpKind.RET)


class _Segment:
    """A straight-line segment: what a traced run writes for it.

    ``rows`` holds the arguments of
    :meth:`~repro.trace.pack.TraceBuilder.row` per position (instruction,
    laid-out pc, FP side); ``reads`` and ``writes`` the register names of
    the segment's read and write tokens, flattened in order (a ``call``'s
    or ``ret``'s written token belongs to another activation and is
    appended by the run loop); ``names`` every name once, in the order
    execution first touches it, which is the order its tokens are
    interned; ``read_counts``/``write_counts`` each position's number of
    tokens; ``mem``/``taken`` the ``-1`` columns that loads, stores and
    the closing branch patch.
    """

    __slots__ = (
        "rows", "names", "reads", "writes", "mem", "taken", "read_counts", "write_counts",
    )

    def __init__(self, instrs: list[Instruction], func: str, layout: ProgramLayout):
        self.rows = []
        self.read_counts = array("H")
        self.write_counts = array("H")
        names: dict[str, None] = {}
        reads: list[str] = []
        writes: list[str] = []
        for instr in instrs:
            kind = instr.kind
            if kind is OpKind.PARAM:
                r: list[str] = ["@args"]
            else:
                r = [reg.name for reg in instr.uses if reg.name != "$zero" and reg.name != "$sp"]
            if kind is OpKind.CALL or kind is OpKind.RET:
                w: list[str] = []
                # a call writes the callee's @args; a ret, when it writes,
                # its caller's result register
                self.write_counts.append(1 if kind is OpKind.CALL else 0)
            else:
                w = [reg.name for reg in instr.defs]
                self.write_counts.append(len(w))
            self.read_counts.append(len(r))
            pc = layout.pc_of[(func, instr.uid)]
            self.rows.append((instr, pc, bool(instr.info.fp_subsystem)))
            names.update(dict.fromkeys(r))
            names.update(dict.fromkeys(w))
            reads += r
            writes += w
        self.names = tuple(names)
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.mem = array("q", [-1]) * len(instrs)
        self.taken = array("b", [-1]) * len(instrs)


class _Code:
    """One function decoded into a step table (see the module docstring).

    :attr:`segments` maps each straight-line segment's first position to
    its :class:`_Segment`.  A segment starts at a block's first
    instruction or just after a call or control instruction, and runs to
    the first call, branch, jump or ``ret``, or to the end of its block.
    """

    __slots__ = ("func", "steps", "layout", "_segments")

    def __init__(self, func: Function, program: Program, layout: ProgramLayout):
        self.func = func
        self.layout = layout
        self._segments: dict[int, _Segment] | None = None
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
        for blk in func.blocks:
            block: tuple[str, str] | None = (name, blk.label)
            if not blk.instructions:
                self.steps.append((_SKIP, block, None, None, None, None, None))
            for instr in blk.instructions:
                self.steps.append(_step(instr, block, program, target_of))
                block = None
        for message in traps:
            self.steps.append((_TRAP, message, None, None, None, None, None))

    @property
    def segments(self) -> dict[int, _Segment]:
        """The segments, split the first time a traced run enters."""
        if self._segments is None:
            segments = self._segments = {}
            name, layout = self.func.name, self.layout
            position = 0  # of the block's first step
            for blk in self.func.blocks:
                instrs = blk.instructions
                first = 0
                for end, instr in enumerate(instrs, 1):
                    if instr.kind in _ENDS_SEGMENT or end == len(instrs):
                        segments[position + first] = _Segment(instrs[first:end], name, layout)
                        first = end
                position += len(instrs) or 1  # an empty block has its entry step
        return self._segments


class _Tokens(dict):
    """One activation's register names -> dependence-token ids, made by
    the trace builder's append-only :meth:`~repro.trace.pack.TraceBuilder.new_token`
    on first use: frame ids are unique per activation, so each
    ``(frame, name)`` reaches the builder exactly once."""

    __slots__ = ("frame", "intern")

    def __init__(self, frame: int, intern) -> None:
        super().__init__()
        self.frame = frame
        self.intern = intern

    def __missing__(self, name: str) -> int:
        tid = self[name] = self.intern(self.frame, name)
        return tid


class _Rows(dict):
    """A traced run's segments -> their static row ids, interned through
    the trace builder the first time the segment runs."""

    __slots__ = ("intern",)

    def __init__(self, intern) -> None:
        super().__init__()
        self.intern = intern

    def __missing__(self, segment: _Segment) -> array:
        intern = self.intern
        sids = self[segment] = array("q", [intern(*row) for row in segment.rows])
        return sids


class _Frame(dict):
    """One activation of a traced run: a segment's first position -> the
    arrays a segment start extends the columns with (row ids, ``-1``
    addresses and outcomes, read and write token ids, read and write
    counts), built the first time this activation runs the segment."""

    __slots__ = ("segments", "tokens", "rows")

    def __init__(self, segments: dict[int, _Segment], tokens: _Tokens, rows: _Rows) -> None:
        super().__init__()
        self.segments = segments
        self.tokens = tokens
        self.rows = rows

    def __missing__(self, start: int) -> tuple:
        segment = self.segments[start]
        token = self.tokens.__getitem__
        for name in segment.names:
            token(name)  # intern in execution order
        parts = self[start] = (
            self.rows[segment],
            segment.mem,
            segment.taken,
            array("q", map(token, segment.reads)),
            array("q", map(token, segment.writes)),
            segment.read_counts,
            segment.write_counts,
        )
        return parts


def _segment_writer(builder):
    """The function that starts a segment in a traced run.

    ``start(frame, index)`` extends the builder's dynamic, token and
    count columns with the arrays of ``frame``'s segment at ``index`` and
    returns ``index`` minus the segment's first entry, which maps each
    position of the segment to its entry.
    """
    pack = builder.pack
    ids = pack.instr_ids
    ids_extend = ids.extend
    mem_extend = pack.mem_addr.extend
    taken_extend = pack.taken.extend
    rtok_extend = pack.read_tokens.extend
    wtok_extend = pack.write_tokens.extend
    rcount_extend = builder.read_counts.extend
    wcount_extend = builder.write_counts.extend

    def start(frame: _Frame, index: int) -> int:
        sids, mem, taken, rtoks, wtoks, rcounts, wcounts = frame[index]
        shift = index - len(ids)
        ids_extend(sids)
        mem_extend(mem)
        taken_extend(taken)
        rtok_extend(rtoks)
        wtok_extend(wtoks)
        rcount_extend(rcounts)
        wcount_extend(wcounts)
        return shift

    return start


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
        # caller's (code, position of its call, regs, args, frame)
        code = code_of(entry or program.entry)
        steps = code.steps
        index = 0
        regs: dict = {"$zero": 0, "$sp": state.sp}
        args: list = []
        stack: list[tuple] = []
        next_frame = 1
        executed = 0
        result_value = None

        # a traced run writes the trace a segment at a time: as a segment
        # starts, ``start`` extends the columns with what the current
        # activation's ``frame`` holds for it, and returns the ``shift``
        # from a position of the segment to its entry, for loads and
        # stores to patch ``mem_addr``; the closing branch patches
        # ``taken[-1]``
        builder = frame = None
        shift = 0
        if collect_trace:
            from repro.trace.pack import TraceBuilder

            builder = TraceBuilder()
            token_of = builder.new_token
            rows = _Rows(builder.row)
            start = _segment_writer(builder)
            mem_col, taken_col = builder.pack.mem_addr, builder.pack.taken
            wtok_append = builder.pack.write_tokens.append
            write_counts = builder.write_counts
            frame = _Frame(code.segments, _Tokens(0, token_of), rows)

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
                    if frame is not None:  # a segment starts
                        shift = start(frame, index)

                executed += 1
                if executed > fuel:
                    raise FuelExhausted(f"exceeded fuel of {fuel} dynamic instructions")

                if kind == _ALU_RI:
                    regs[a] = fn(regs[b], c)
                elif kind == _ALU_RR:
                    regs[a] = fn(regs[b], regs[c])
                elif kind == _BR:
                    if fn(regs[b], regs[c]):
                        if frame is not None:
                            taken_col[-1] = 1
                        index = target
                        continue
                    if frame is not None:
                        taken_col[-1] = 0
                        index += 1
                        if steps[index][1] is None:  # falls into the rest of its block
                            shift = start(frame, index)
                        continue
                elif kind == _SW:
                    value = regs[a]
                    addr = regs[b] + c
                    store_word(addr, value)
                    if frame is not None:
                        mem_col[index - shift] = addr
                elif kind == _J:
                    index = target
                    continue
                elif kind == _LW:
                    addr = regs[b] + c
                    regs[a] = load_word(addr)
                    if frame is not None:
                        mem_col[index - shift] = addr
                elif kind == _PARAM:
                    regs[a] = args[c]
                elif kind == _CALL:
                    call_args = [regs[name] for name in b]
                    callee = code_of(fn)
                    stack.append((code, index, regs, args, frame))
                    code = callee
                    steps = code.steps
                    index = 0
                    state.sp -= code.func.frame_size
                    regs = {"$zero": 0, "$sp": state.sp}
                    args = call_args
                    if frame is not None:
                        frame = _Frame(code.segments, _Tokens(next_frame, token_of), rows)
                        wtok_append(frame.tokens["@args"])
                    next_frame += 1
                    continue
                elif kind == _RET:
                    value = None if b is None else regs[b]
                    if not stack:
                        result_value = value
                        break
                    code, index, regs, args, frame = stack.pop()
                    steps = code.steps
                    state.sp = regs["$sp"]
                    _, _, a, _, dest, _, _ = steps[index]  # the call
                    if a is not _DISCARD:
                        regs[a] = value
                    if frame is not None:
                        if dest is not None:  # the ret's write token
                            wtok_append(frame.tokens[dest])
                            write_counts[-1] = 1
                        if steps[index + 1][1] is None:  # the call was mid-block
                            shift = start(frame, index + 1)
                elif kind == _LB:
                    addr = regs[b] + c
                    regs[a] = load_byte(addr, fn)
                    if frame is not None:
                        mem_col[index - shift] = addr
                elif kind == _SB:
                    value = regs[a]
                    addr = regs[b] + c
                    store_byte(addr, value)
                    if frame is not None:
                        mem_col[index - shift] = addr
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
