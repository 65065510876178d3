"""Register model.

Registers come in two architectural classes, mirroring the partitioned
register files of the paper's machine:

* ``RegClass.INT`` — the integer register file (``$0``..``$31``).
* ``RegClass.FP`` — the floating-point register file (``$f0``..``$f31``),
  which in the augmented (FPa) microarchitecture also holds integer values
  operated on by the ``.a`` opcodes.

Before register allocation the compiler works with *virtual* registers
(``v0``, ``v1``, ... and ``vf0``, ``vf1``, ... once a class is known).
A virtual register's class is decided by code partitioning: values produced
by FPa-partition instructions become FP-class, everything else INT-class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RegClass(enum.Enum):
    """Architectural register file a register belongs to."""

    INT = "int"
    FP = "fp"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegClass.{self.name}"


@dataclass(frozen=True, slots=True)
class Reg:
    """A register operand.

    Attributes:
        name: Unique name within a function (``v7``, ``$2``, ``$f4``...).
        rclass: Register file this register lives in.
        virtual: True for compiler temporaries, False for architectural
            registers produced by register allocation (or special registers
            such as ``$zero``).
    """

    name: str
    rclass: RegClass = RegClass.INT
    virtual: bool = True

    def __hash__(self) -> int:
        # consistent with the generated __eq__ (equal registers have
        # equal names) and far cheaper than hashing the field tuple with
        # its enum member
        return hash(self.name)

    def __str__(self) -> str:
        return self.name

    def with_class(self, rclass: RegClass) -> "Reg":
        """Return a copy of this register re-homed to ``rclass``.

        Virtual registers are renamed with a class-specific prefix so that
        the INT and FP versions of the same partitioned value never
        collide (``v3`` -> ``vf3`` when moved to the FP file).
        """
        if rclass is self.rclass:
            return self
        if not self.virtual:
            raise ValueError(f"cannot re-class physical register {self.name}")
        if rclass is RegClass.FP:
            new_name = "vf" + self.name.removeprefix("v")
        else:
            new_name = "v" + self.name.removeprefix("vf")
        return Reg(new_name, rclass, True)


#: The hard-wired zero register of the integer file.
ZERO = Reg("$zero", RegClass.INT, virtual=False)


def int_reg(index: int) -> Reg:
    """Architectural integer register ``$<index>`` (0..31)."""
    if not 0 <= index < 32:
        raise ValueError(f"integer register index out of range: {index}")
    if index == 0:
        return ZERO
    return Reg(f"${index}", RegClass.INT, virtual=False)


def fp_reg(index: int) -> Reg:
    """Architectural floating-point register ``$f<index>`` (0..31)."""
    if not 0 <= index < 32:
        raise ValueError(f"fp register index out of range: {index}")
    return Reg(f"$f{index}", RegClass.FP, virtual=False)


def virtual_reg(index: int, rclass: RegClass = RegClass.INT) -> Reg:
    """Virtual register ``v<index>`` (INT class) or ``vf<index>`` (FP)."""
    prefix = "vf" if rclass is RegClass.FP else "v"
    return Reg(f"{prefix}{index}", rclass, virtual=True)


def parse_reg(text: str) -> Reg:
    """Parse a register name back into a :class:`Reg`.

    Accepts the formats produced by :func:`int_reg`, :func:`fp_reg`,
    :func:`virtual_reg` and the special name ``$zero``.
    """
    if text == "$zero" or text == "$0":
        return ZERO
    if text.startswith("$f"):
        return Reg(text, RegClass.FP, virtual=False)
    if text.startswith("$"):
        return Reg(text, RegClass.INT, virtual=False)
    if text.startswith("vf"):
        return Reg(text, RegClass.FP, virtual=True)
    if text.startswith("v"):
        return Reg(text, RegClass.INT, virtual=True)
    raise ValueError(f"not a register name: {text!r}")
