"""Parser for the textual IR format produced by :mod:`repro.ir.printer`.

The grammar is line-oriented:

* ``global NAME SIZE [= w0 w1 ...]``
* ``func NAME(NPARAMS) [returns] {`` ... ``}``
* ``LABEL:`` starts a block.
* One instruction per line, in the printer's format.  ``#`` starts a
  comment running to end of line.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.ir.function import Function
from repro.ir.instructions import Immediate, Instruction
from repro.ir.opcodes import Opcode, OpKind, opcode_by_name
from repro.ir.program import Program
from repro.ir.registers import Reg, parse_reg

_FUNC_RE = re.compile(
    r"^func\s+(\w+)\((\d+)\)\s*(returns)?\s*(?:fp\[([0-9,]+)\])?\s*\{$"
)
_GLOBAL_RE = re.compile(r"^global\s+(\w+)\s+(\d+)(?:\s*=\s*(.*))?$")
_LABEL_RE = re.compile(r"^(\w+):$")
_CALL_RE = re.compile(r"^(?:(\S+)\s*=\s*)?call\s+(\w+)\((.*)\)$")


def _parse_imm(token: str, line: int) -> Immediate:
    if token.startswith("@"):
        return token[1:]
    try:
        return int(token, 0)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad immediate {token!r}", line) from None


def _parse_operands(text: str, line: int) -> list[str]:
    text = text.strip()
    if not text:
        return []
    return [tok.strip() for tok in text.split(",")]


def _parse_reg(token: str, line: int) -> Reg:
    """Like :func:`parse_reg` but raising a located ParseError."""
    try:
        return parse_reg(token)
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


def parse_instruction(text: str, line: int = 0) -> Instruction:
    """Parse a single instruction line (without indentation)."""
    try:
        return _parse_instruction(text, line)
    except (ValueError, IndexError) as exc:
        # malformed operand lists (wrong arity, bad integers) surface as
        # located parse errors, never as internal exceptions
        raise ParseError(f"malformed instruction: {exc}", line) from None


def _parse_instruction(text: str, line: int) -> Instruction:
    text = text.split("#", 1)[0].strip()
    call_match = _CALL_RE.match(text)
    if call_match:
        dest, callee, argtext = call_match.groups()
        args = [_parse_reg(tok, line) for tok in _parse_operands(argtext, line)]
        defs = [_parse_reg(dest, line)] if dest else []
        return Instruction(Opcode.CALL, defs=defs, uses=args, target=callee)

    defs: list[Reg] = []
    if "=" in text:
        dest_text, text = text.split("=", 1)
        defs = [_parse_reg(dest_text.strip(), line)]
        text = text.strip()

    parts = text.split(None, 1)
    if not parts:
        raise ParseError("empty instruction", line)
    mnemonic = parts[0]
    try:
        op = opcode_by_name(mnemonic)
    except KeyError:
        raise ParseError(f"unknown opcode {mnemonic!r}", line) from None
    operands = _parse_operands(parts[1] if len(parts) > 1 else "", line)
    info = op.info
    kind = info.kind

    if kind is OpKind.RET:
        uses = [_parse_reg(operands[0], line)] if operands else []
        return Instruction(op, uses=uses)
    if kind is OpKind.PARAM:
        return Instruction(op, defs=defs, imm=int(operands[0]))
    if kind is OpKind.JUMP:
        return Instruction(op, target=operands[0])
    if kind is OpKind.BRANCH:
        *srcs, target = operands
        return Instruction(op, uses=[_parse_reg(s, line) for s in srcs], target=target)
    if kind is OpKind.STORE:
        if len(operands) == 2:
            operands.append("0")
        value, base, offset = operands
        return Instruction(
            op, uses=[_parse_reg(value, line), _parse_reg(base, line)], imm=_parse_imm(offset, line)
        )
    if kind is OpKind.LOAD:
        if len(operands) == 1:
            operands.append("0")
        base, offset = operands
        return Instruction(op, defs=defs, uses=[_parse_reg(base, line)], imm=_parse_imm(offset, line))
    if kind is OpKind.NOP:
        return Instruction(op)

    # ALU / MUL / DIV / COPY
    imm: Immediate = None
    if info.has_imm:
        if not operands:
            raise ParseError(f"{mnemonic} requires an immediate", line)
        imm = _parse_imm(operands[-1], line)
        operands = operands[:-1]
    uses = [_parse_reg(tok, line) for tok in operands]
    if info.n_uses >= 0 and len(uses) != info.n_uses:
        raise ParseError(
            f"{mnemonic} expects {info.n_uses} register sources, got {len(uses)}", line
        )
    return Instruction(op, defs=defs, uses=uses, imm=imm)


def parse_function(text: str) -> Function:
    """Parse a single ``func ... { }`` body; convenience for tests."""
    program = parse_program(text)
    if len(program.functions) != 1:
        raise ParseError(f"expected exactly one function, got {len(program.functions)}")
    return next(iter(program.functions.values()))


def parse_program(text: str, entry: str = "main") -> Program:
    """Parse a whole program from text."""
    program = Program(entry=entry)
    func: Function | None = None
    current_label: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if func is None:
            match = _GLOBAL_RE.match(line)
            if match:
                name, size, init_text = match.groups()
                try:
                    init = (
                        [int(w, 0) for w in init_text.split()] if init_text else None
                    )
                    program.add_global(name, int(size), init)
                except ValueError as exc:
                    raise ParseError(f"bad global declaration: {exc}", lineno) from None
                continue
            match = _FUNC_RE.match(line)
            if match:
                name, n_params, returns, fp_list = match.groups()
                func = Function(name, n_params=int(n_params), returns_value=bool(returns))
                if fp_list:
                    func.fp_params = {int(i) for i in fp_list.split(",")}
                current_label = None
                continue
            raise ParseError(f"expected global or func, got {line!r}", lineno)
        if line == "}":
            try:
                program.add_function(func)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            func = None
            continue
        match = _LABEL_RE.match(line)
        if match:
            current_label = match.group(1)
            try:
                func.new_block(current_label)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        if current_label is None:
            raise ParseError("instruction before any block label", lineno)
        instr = parse_instruction(line, lineno)
        func.attach(instr)
        func.block(current_label).instructions.append(instr)

    if func is not None:
        raise ParseError(f"unterminated function {func.name!r}")
    program.layout()
    return program
