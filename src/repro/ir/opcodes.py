"""Opcode definitions and metadata.

The opcode set is a MIPS-like RISC ISA (the paper targets an extended
SimpleScalar/MIPS ISA) with three groups:

1. **Base integer ISA** — ALU ops, shifts, multiply/divide, loads, stores,
   branches, jumps and the call/ret/param pseudo-ops used by the IR's
   explicit-operand calling model.
2. **Base floating-point ISA** — single-precision arithmetic, moves,
   conversions and FP compare-branches.
3. **FPa extension** — exactly 22 new opcodes (the paper's count) that let
   the augmented floating-point subsystem execute simple integer
   operations on FP registers, plus the two inter-partition copy
   instructions ``cp_to_comp`` / ``cp_from_comp`` (which existing ISAs
   already provide, e.g. MIPS ``mtc1``/``mfc1``, so they are not counted
   among the 22).

Integer multiply and divide deliberately have **no** FPa twin: the paper
excludes them to keep the hardware cost low, so any slice containing them
is pinned to the INT subsystem.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Opcode(enum.Enum):
    """All opcodes known to the IR. Values are the assembly mnemonics.

    Each member carries its :class:`OpInfo` as ``op.info`` (attached
    below from :data:`OPCODES`), so hot paths read an attribute instead
    of hashing the enum member into a dict.
    """

    info: OpInfo

    # --- integer ALU, register-register ---
    ADDU = "addu"
    SUBU = "subu"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SLT = "slt"
    SLTU = "sltu"
    SLLV = "sllv"
    SRLV = "srlv"
    SRAV = "srav"
    # --- integer ALU, immediate ---
    ADDIU = "addiu"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLTI = "slti"
    SLTIU = "sltiu"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    LUI = "lui"
    LI = "li"
    MOVE = "move"
    # --- integer multiply / divide (INT subsystem only) ---
    MULT = "mult"
    DIV = "div"
    REM = "rem"
    # --- memory ---
    LW = "lw"
    LB = "lb"
    LBU = "lbu"
    SW = "sw"
    SB = "sb"
    LS = "l.s"  # load word into an FP register (float or offloaded int)
    SS = "s.s"  # store word from an FP register
    # --- control ---
    BEQ = "beq"
    BNE = "bne"
    BLEZ = "blez"
    BGTZ = "bgtz"
    BLTZ = "bltz"
    BGEZ = "bgez"
    J = "j"
    CALL = "call"
    RET = "ret"
    PARAM = "param"
    NOP = "nop"
    # --- floating point (true float operations) ---
    ADD_S = "add.s"
    SUB_S = "sub.s"
    MUL_S = "mul.s"
    DIV_S = "div.s"
    NEG_S = "neg.s"
    MOV_S = "mov.s"
    LI_S = "li.s"
    CVT_S_W = "cvt.s.w"  # int (in FP reg) -> float
    CVT_W_S = "cvt.w.s"  # float -> int (in FP reg)
    BEQ_S = "beq.s"
    BNE_S = "bne.s"
    BLT_S = "blt.s"
    BLE_S = "ble.s"
    # --- FPa extension: the 22 new opcodes ---
    ADDU_A = "addu.a"
    SUBU_A = "subu.a"
    AND_A = "and.a"
    OR_A = "or.a"
    XOR_A = "xor.a"
    SLT_A = "slt.a"
    SLTU_A = "sltu.a"
    SLLV_A = "sllv.a"
    SRAV_A = "srav.a"
    ADDIU_A = "addiu.a"
    ANDI_A = "andi.a"
    SLTI_A = "slti.a"
    SLTIU_A = "sltiu.a"
    SLL_A = "sll.a"
    SRL_A = "srl.a"
    SRA_A = "sra.a"
    LI_A = "li.a"
    MOVE_A = "move.a"
    BEQ_A = "beq.a"
    BNE_A = "bne.a"
    BLEZ_A = "blez.a"
    BLTZ_A = "bltz.a"
    # --- inter-partition copies (pre-existing in real ISAs: mtc1/mfc1) ---
    CP_TO_COMP = "cp_to_comp"  # INT reg -> FP reg
    CP_FROM_COMP = "cp_from_comp"  # FP reg -> INT reg

    def __str__(self) -> str:
        return self.value


class OpKind(enum.Enum):
    """Coarse behavioural category used by analyses and the simulators."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    CALL = "call"
    RET = "ret"
    PARAM = "param"
    COPY = "copy"
    NOP = "nop"


@dataclass(frozen=True, slots=True)
class OpInfo:
    """Static metadata for one opcode.

    Attributes:
        kind: Behavioural category.
        n_uses: Number of register source operands.
        n_defs: Number of register destination operands (0 or 1).
        has_imm: Whether the instruction carries an immediate.
        has_target: Whether it carries a label / function-name target.
        latency: Execution latency in cycles (loads add cache time).
        fp_subsystem: True if the instruction *executes* in the FP / FPa
            subsystem.  Loads and stores always execute (address
            generation + port) in the INT subsystem even when their data
            register is FP-class.
        twin: Mnemonic of the FPa twin for offloadable integer opcodes,
            or of the integer original for ``.a`` opcodes; None otherwise.
    """

    kind: OpKind
    n_uses: int
    n_defs: int
    has_imm: bool = False
    has_target: bool = False
    latency: int = 1
    fp_subsystem: bool = False
    twin: str | None = None


def _int_alu(n_uses: int, twin: str | None, imm: bool = False) -> OpInfo:
    return OpInfo(OpKind.ALU, n_uses, 1, has_imm=imm, twin=twin)


def _fpa_alu(n_uses: int, twin: str, imm: bool = False) -> OpInfo:
    return OpInfo(OpKind.ALU, n_uses, 1, has_imm=imm, fp_subsystem=True, twin=twin)


OPCODES: dict[Opcode, OpInfo] = {
    # integer ALU reg-reg
    Opcode.ADDU: _int_alu(2, "addu.a"),
    Opcode.SUBU: _int_alu(2, "subu.a"),
    Opcode.AND: _int_alu(2, "and.a"),
    Opcode.OR: _int_alu(2, "or.a"),
    Opcode.XOR: _int_alu(2, "xor.a"),
    Opcode.NOR: _int_alu(2, None),  # no FPa twin: not among the 22
    Opcode.SLT: _int_alu(2, "slt.a"),
    Opcode.SLTU: _int_alu(2, "sltu.a"),
    Opcode.SLLV: _int_alu(2, "sllv.a"),
    Opcode.SRLV: _int_alu(2, None),  # no FPa twin: not among the 22
    Opcode.SRAV: _int_alu(2, "srav.a"),
    # integer ALU immediate
    Opcode.ADDIU: _int_alu(1, "addiu.a", imm=True),
    Opcode.ANDI: _int_alu(1, "andi.a", imm=True),
    Opcode.ORI: _int_alu(1, None, imm=True),  # codegen prefers reg-reg `or`
    Opcode.XORI: _int_alu(1, None, imm=True),  # codegen prefers reg-reg `xor`
    Opcode.SLTI: _int_alu(1, "slti.a", imm=True),
    Opcode.SLTIU: _int_alu(1, "sltiu.a", imm=True),
    Opcode.SLL: _int_alu(1, "sll.a", imm=True),
    Opcode.SRL: _int_alu(1, "srl.a", imm=True),
    Opcode.SRA: _int_alu(1, "sra.a", imm=True),
    Opcode.LUI: _int_alu(0, None, imm=True),
    Opcode.LI: _int_alu(0, "li.a", imm=True),
    Opcode.MOVE: _int_alu(1, "move.a"),
    # integer multiply/divide — INT subsystem only (paper: excluded from FPa)
    Opcode.MULT: OpInfo(OpKind.MUL, 2, 1, latency=6),
    Opcode.DIV: OpInfo(OpKind.DIV, 2, 1, latency=12),
    Opcode.REM: OpInfo(OpKind.DIV, 2, 1, latency=12),
    # memory: one address-register use; stores have an extra value use first
    Opcode.LW: OpInfo(OpKind.LOAD, 1, 1, has_imm=True),
    Opcode.LB: OpInfo(OpKind.LOAD, 1, 1, has_imm=True),
    Opcode.LBU: OpInfo(OpKind.LOAD, 1, 1, has_imm=True),
    Opcode.SW: OpInfo(OpKind.STORE, 2, 0, has_imm=True),
    Opcode.SB: OpInfo(OpKind.STORE, 2, 0, has_imm=True),
    Opcode.LS: OpInfo(OpKind.LOAD, 1, 1, has_imm=True),
    Opcode.SS: OpInfo(OpKind.STORE, 2, 0, has_imm=True),
    # control
    Opcode.BEQ: OpInfo(OpKind.BRANCH, 2, 0, has_target=True, twin="beq.a"),
    Opcode.BNE: OpInfo(OpKind.BRANCH, 2, 0, has_target=True, twin="bne.a"),
    Opcode.BLEZ: OpInfo(OpKind.BRANCH, 1, 0, has_target=True, twin="blez.a"),
    Opcode.BGTZ: OpInfo(OpKind.BRANCH, 1, 0, has_target=True, twin=None),
    Opcode.BLTZ: OpInfo(OpKind.BRANCH, 1, 0, has_target=True, twin="bltz.a"),
    Opcode.BGEZ: OpInfo(OpKind.BRANCH, 1, 0, has_target=True, twin=None),
    Opcode.J: OpInfo(OpKind.JUMP, 0, 0, has_target=True),
    Opcode.CALL: OpInfo(OpKind.CALL, -1, -1, has_target=True),  # variadic
    Opcode.RET: OpInfo(OpKind.RET, -1, 0),  # 0 or 1 use
    Opcode.PARAM: OpInfo(OpKind.PARAM, 0, 1, has_imm=True),
    Opcode.NOP: OpInfo(OpKind.NOP, 0, 0),
    # floating point
    Opcode.ADD_S: OpInfo(OpKind.ALU, 2, 1, fp_subsystem=True),
    Opcode.SUB_S: OpInfo(OpKind.ALU, 2, 1, fp_subsystem=True),
    Opcode.MUL_S: OpInfo(OpKind.MUL, 2, 1, latency=6, fp_subsystem=True),
    Opcode.DIV_S: OpInfo(OpKind.DIV, 2, 1, latency=12, fp_subsystem=True),
    Opcode.NEG_S: OpInfo(OpKind.ALU, 1, 1, fp_subsystem=True),
    Opcode.MOV_S: OpInfo(OpKind.ALU, 1, 1, fp_subsystem=True),
    Opcode.LI_S: OpInfo(OpKind.ALU, 0, 1, has_imm=True, fp_subsystem=True),
    Opcode.CVT_S_W: OpInfo(OpKind.ALU, 1, 1, fp_subsystem=True),
    Opcode.CVT_W_S: OpInfo(OpKind.ALU, 1, 1, fp_subsystem=True),
    Opcode.BEQ_S: OpInfo(OpKind.BRANCH, 2, 0, has_target=True, fp_subsystem=True),
    Opcode.BNE_S: OpInfo(OpKind.BRANCH, 2, 0, has_target=True, fp_subsystem=True),
    Opcode.BLT_S: OpInfo(OpKind.BRANCH, 2, 0, has_target=True, fp_subsystem=True),
    Opcode.BLE_S: OpInfo(OpKind.BRANCH, 2, 0, has_target=True, fp_subsystem=True),
    # FPa extension
    Opcode.ADDU_A: _fpa_alu(2, "addu"),
    Opcode.SUBU_A: _fpa_alu(2, "subu"),
    Opcode.AND_A: _fpa_alu(2, "and"),
    Opcode.OR_A: _fpa_alu(2, "or"),
    Opcode.XOR_A: _fpa_alu(2, "xor"),
    Opcode.SLT_A: _fpa_alu(2, "slt"),
    Opcode.SLTU_A: _fpa_alu(2, "sltu"),
    Opcode.SLLV_A: _fpa_alu(2, "sllv"),
    Opcode.SRAV_A: _fpa_alu(2, "srav"),
    Opcode.ADDIU_A: _fpa_alu(1, "addiu", imm=True),
    Opcode.ANDI_A: _fpa_alu(1, "andi", imm=True),
    Opcode.SLTI_A: _fpa_alu(1, "slti", imm=True),
    Opcode.SLTIU_A: _fpa_alu(1, "sltiu", imm=True),
    Opcode.SLL_A: _fpa_alu(1, "sll", imm=True),
    Opcode.SRL_A: _fpa_alu(1, "srl", imm=True),
    Opcode.SRA_A: _fpa_alu(1, "sra", imm=True),
    Opcode.LI_A: _fpa_alu(0, "li", imm=True),
    Opcode.MOVE_A: _fpa_alu(1, "move"),
    Opcode.BEQ_A: OpInfo(OpKind.BRANCH, 2, 0, has_target=True, fp_subsystem=True, twin="beq"),
    Opcode.BNE_A: OpInfo(OpKind.BRANCH, 2, 0, has_target=True, fp_subsystem=True, twin="bne"),
    Opcode.BLEZ_A: OpInfo(OpKind.BRANCH, 1, 0, has_target=True, fp_subsystem=True, twin="blez"),
    Opcode.BLTZ_A: OpInfo(OpKind.BRANCH, 1, 0, has_target=True, fp_subsystem=True, twin="bltz"),
    # copies
    Opcode.CP_TO_COMP: OpInfo(OpKind.COPY, 1, 1),
    Opcode.CP_FROM_COMP: OpInfo(OpKind.COPY, 1, 1, fp_subsystem=True),
}

for _op, _info in OPCODES.items():
    _op.info = _info
del _op, _info

#: The FPa extension opcodes (exactly 22, matching the paper's count).
FPA_OPCODES: frozenset[Opcode] = frozenset(
    op for op, info in OPCODES.items() if info.fp_subsystem and info.twin is not None
)

_BY_NAME: dict[str, Opcode] = {op.value: op for op in Opcode}


def opcode_by_name(name: str) -> Opcode:
    """Look up an opcode by its mnemonic; raises KeyError if unknown."""
    return _BY_NAME[name]


def fpa_twin(op: Opcode) -> Opcode | None:
    """The ``.a`` twin of an integer opcode, or None if not offloadable.

    Returns None for opcodes that already execute in the FP subsystem and
    for integer opcodes the FPa extension does not cover (mul/div, nor,
    variable shifts, byte memory ops, ...).
    """
    info = op.info
    if info.fp_subsystem or info.twin is None:
        return None
    return _BY_NAME[info.twin]


def int_twin(op: Opcode) -> Opcode | None:
    """The integer original of an ``.a`` opcode, or None."""
    info = op.info
    if not info.fp_subsystem or info.twin is None:
        return None
    return _BY_NAME[info.twin]


def is_offloadable(op: Opcode) -> bool:
    """True if the opcode has an FPa twin (can execute in FPa)."""
    return fpa_twin(op) is not None
