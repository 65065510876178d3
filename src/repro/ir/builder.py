"""Fluent construction API for IR functions.

The builder keeps a current insertion block and allocates virtual
registers on demand.  It is the target of the MiniC code generator and is
also convenient for hand-writing IR in tests and examples::

    fn = Function("add3", n_params=1, returns_value=True)
    b = IRBuilder(fn)
    entry = b.new_block("entry")
    b.set_block(entry)
    x = b.param(0)
    r = b.emit_alu(Opcode.ADDIU, x, imm=3)
    b.ret(r)
"""

from __future__ import annotations

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Immediate, Instruction
from repro.ir.opcodes import Opcode, OpKind
from repro.ir.registers import Reg, RegClass


class IRBuilder:
    """Appends instructions to a function, block by block."""

    def __init__(self, func: Function):
        self.func = func
        self._block: BasicBlock | None = None

    # ------------------------------------------------------------------
    # block management
    # ------------------------------------------------------------------
    def new_block(self, label: str) -> BasicBlock:
        """Create a fresh block (does not change the insertion point)."""
        return self.func.new_block(label)

    def set_block(self, block: BasicBlock | str) -> BasicBlock:
        """Move the insertion point to ``block``."""
        if isinstance(block, str):
            block = self.func.block(block)
        self._block = block
        return block

    @property
    def block(self) -> BasicBlock:
        if self._block is None:
            raise ValueError("no insertion block set")
        return self._block

    def new_vreg(self, rclass: RegClass = RegClass.INT) -> Reg:
        return self.func.new_vreg(rclass)

    # ------------------------------------------------------------------
    # raw emission
    # ------------------------------------------------------------------
    def emit(self, instr: Instruction) -> Instruction:
        """Append ``instr`` to the current block and register it."""
        if self.block.terminator is not None:
            raise ValueError(
                f"block {self.block.label!r} already terminated; cannot append {instr.op}"
            )
        self.func.attach(instr)
        self.block.instructions.append(instr)
        return instr

    # ------------------------------------------------------------------
    # typed helpers
    # ------------------------------------------------------------------
    def param(self, index: int) -> Reg:
        """Emit a formal-parameter definition and return its register."""
        dest = self.new_vreg()
        self.emit(Instruction(Opcode.PARAM, defs=[dest], imm=index))
        return dest

    def li(self, value: int) -> Reg:
        """Materialize an integer constant."""
        dest = self.new_vreg()
        self.emit(Instruction(Opcode.LI, defs=[dest], imm=value))
        return dest

    def li_float(self, value: float) -> Reg:
        """Materialize a float constant in an FP register."""
        dest = self.new_vreg(RegClass.FP)
        self.emit(Instruction(Opcode.LI_S, defs=[dest], imm=value))
        return dest

    def la(self, symbol: str) -> Reg:
        """Materialize the address of a global (``li`` with a symbol)."""
        dest = self.new_vreg()
        self.emit(Instruction(Opcode.LI, defs=[dest], imm=symbol))
        return dest

    def move(self, src: Reg) -> Reg:
        dest = self.new_vreg(src.rclass)
        op = Opcode.MOV_S if src.rclass is RegClass.FP else Opcode.MOVE
        self.emit(Instruction(op, defs=[dest], uses=[src]))
        return dest

    def emit_alu(self, op: Opcode, *srcs: Reg, imm: Immediate = None, dest: Reg | None = None) -> Reg:
        """Emit an ALU/mul/div instruction, allocating the destination.

        The destination register class follows the opcode's subsystem.
        """
        info = op.info
        if info.kind not in (OpKind.ALU, OpKind.MUL, OpKind.DIV):
            raise ValueError(f"emit_alu got non-ALU opcode {op}")
        if len(srcs) != info.n_uses:
            raise ValueError(f"{op} expects {info.n_uses} sources, got {len(srcs)}")
        if info.has_imm and imm is None:
            raise ValueError(f"{op} requires an immediate")
        if dest is None:
            rclass = RegClass.FP if info.fp_subsystem else RegClass.INT
            dest = self.new_vreg(rclass)
        self.emit(Instruction(op, defs=[dest], uses=list(srcs), imm=imm))
        return dest

    def load(self, base: Reg, offset: int = 0, op: Opcode = Opcode.LW) -> Reg:
        info = op.info
        if info.kind is not OpKind.LOAD:
            raise ValueError(f"load got non-load opcode {op}")
        rclass = RegClass.FP if op is Opcode.LS else RegClass.INT
        dest = self.new_vreg(rclass)
        self.emit(Instruction(op, defs=[dest], uses=[base], imm=offset))
        return dest

    def store(self, value: Reg, base: Reg, offset: int = 0, op: Opcode = Opcode.SW) -> Instruction:
        info = op.info
        if info.kind is not OpKind.STORE:
            raise ValueError(f"store got non-store opcode {op}")
        return self.emit(Instruction(op, uses=[value, base], imm=offset))

    def branch(self, op: Opcode, *srcs: Reg, target: str) -> Instruction:
        info = op.info
        if info.kind is not OpKind.BRANCH:
            raise ValueError(f"branch got non-branch opcode {op}")
        if len(srcs) != info.n_uses:
            raise ValueError(f"{op} expects {info.n_uses} sources, got {len(srcs)}")
        return self.emit(Instruction(op, uses=list(srcs), target=target))

    def jump(self, target: str) -> Instruction:
        return self.emit(Instruction(Opcode.J, target=target))

    def call(self, callee: str, args: list[Reg], returns_value: bool = False) -> Reg | None:
        """Emit a call; returns the result register if ``returns_value``."""
        defs: list[Reg] = []
        result: Reg | None = None
        if returns_value:
            result = self.new_vreg()
            defs = [result]
        self.emit(Instruction(Opcode.CALL, defs=defs, uses=list(args), target=callee))
        return result

    def ret(self, value: Reg | None = None) -> Instruction:
        uses = [value] if value is not None else []
        return self.emit(Instruction(Opcode.RET, uses=uses))
