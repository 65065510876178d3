"""The :class:`Instruction` container.

Operand conventions (fixed positions, checked by the verifier):

* ALU reg-reg: ``defs=[d], uses=[s1, s2]``.
* ALU immediate: ``defs=[d], uses=[s1], imm=k``.
* ``li``/``lui``: ``defs=[d], imm=k`` where ``k`` may be an ``int``, a
  ``float`` (for ``li.s``) or a ``str`` naming a global whose address is
  materialized (the "load address" idiom).
* Loads: ``defs=[value], uses=[base], imm=offset``.
* Stores: ``uses=[value, base], imm=offset`` (value first).
* Branches: ``uses=[s1(, s2)], target=label``.
* ``call``: ``target=function name, uses=args, defs=[] or [retval]``.
* ``ret``: ``uses=[] or [value]``.
* ``param``: ``defs=[formal], imm=parameter index`` — the dummy
  formal-parameter definition node of the paper's §6.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.opcodes import Opcode, OpKind, OpInfo
from repro.ir.registers import Reg

Immediate = int | float | str | None


@dataclass(eq=False, slots=True)
class Instruction:
    """One IR instruction.

    Instructions compare by identity (``eq=False``): the same opcode and
    operands at two program points are distinct RDG nodes.

    Attributes:
        op: The opcode.
        defs: Destination registers (0 or 1 except ``call``).
        uses: Source registers, in the positional order described in the
            module docstring.
        imm: Immediate operand (int/float/global-symbol) when applicable.
        target: Branch label or callee name when applicable.
        uid: Unique id within the enclosing function, assigned when the
            instruction is attached to a block; -1 before that.
    """

    op: Opcode
    defs: list[Reg] = field(default_factory=list)
    uses: list[Reg] = field(default_factory=list)
    imm: Immediate = None
    target: str | None = None
    uid: int = -1

    @property
    def info(self) -> OpInfo:
        """Static metadata for this instruction's opcode."""
        return self.op.info

    @property
    def kind(self) -> OpKind:
        return self.op.info.kind

    @property
    def is_control(self) -> bool:
        """True for instructions that end or redirect control flow."""
        return self.kind in (OpKind.BRANCH, OpKind.JUMP, OpKind.RET)

    @property
    def is_memory(self) -> bool:
        return self.kind in (OpKind.LOAD, OpKind.STORE)

    @property
    def def_reg(self) -> Reg | None:
        """The single destination register, or None."""
        return self.defs[0] if self.defs else None

    @property
    def store_value(self) -> Reg:
        """The value operand of a store (first use)."""
        if self.kind is not OpKind.STORE:
            raise ValueError(f"{self.op} is not a store")
        return self.uses[0]

    @property
    def address_base(self) -> Reg:
        """The base-address operand of a load or store."""
        if self.kind is OpKind.LOAD:
            return self.uses[0]
        if self.kind is OpKind.STORE:
            return self.uses[1]
        raise ValueError(f"{self.op} is not a memory instruction")

    def copy(self) -> "Instruction":
        """A detached deep-enough copy (fresh operand lists, uid reset)."""
        return Instruction(
            op=self.op,
            defs=list(self.defs),
            uses=list(self.uses),
            imm=self.imm,
            target=self.target,
            uid=-1,
        )

    def replace_use(self, old: Reg, new: Reg) -> int:
        """Replace every occurrence of ``old`` among the uses; returns the
        number of replacements."""
        count = 0
        for i, reg in enumerate(self.uses):
            if reg == old:
                self.uses[i] = new
                count += 1
        return count

    def __repr__(self) -> str:
        from repro.ir.printer import print_instruction

        return f"<{print_instruction(self)} #{self.uid}>"
