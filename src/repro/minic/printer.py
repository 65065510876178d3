"""MiniC pretty-printer: AST back to parseable source text.

The inverse of :mod:`repro.minic.parser`, used by the fuzzer's program
builder (:mod:`repro.gen.build`) to emit its programs and by the fuzz
shrinker to re-render candidate reductions.

The output is *normalized*: four-space indentation, one statement per
line, every operand of a binary expression parenthesized only when
precedence requires it.  Normalization makes the printer a fixpoint of
``parse``: for any AST, ``print_unit(parse(print_unit(ast)))`` equals
``print_unit(ast)`` byte for byte (the parse→print→parse round-trip
property test in ``tests/minic/test_printer_roundtrip.py`` holds the
two directions together).
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.minic.astnodes import (
    Assign,
    Binary,
    Block,
    Break,
    Call,
    Cast,
    Continue,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    FuncDecl,
    GlobalDecl,
    If,
    Index,
    IntLit,
    Name,
    Return,
    Stmt,
    TranslationUnit,
    Unary,
    VarDecl,
    While,
)

#: Binding strength per binary operator, tighter = larger.  Mirrors the
#: parser's ``_LEVELS`` table (loosest first there).
_PRECEDENCE: dict[str, int] = {}
for _level, _ops in enumerate(
    [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", "<=", ">", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]
):
    for _op in _ops:
        _PRECEDENCE[_op] = _level

#: Binding strength of unary operators / casts (tighter than any binary).
_UNARY_LEVEL = max(_PRECEDENCE.values()) + 1


def _float_text(value: float) -> str:
    """A float literal the lexer tokenizes back to the same value.

    The lexer requires a ``.`` in float literals, so integral values
    print as ``1.0`` rather than ``1``; ``repr`` covers the rest
    losslessly.
    """
    text = repr(float(value))
    if "." not in text and "e" not in text and "inf" not in text and "nan" not in text:
        text += ".0"
    return text


def print_expr(expr: Expr) -> str:
    """Render one expression (minimally parenthesized)."""
    return _expr(expr, 0)


def _expr(expr: Expr, parent_level: int) -> str:
    if isinstance(expr, IntLit):
        # negative literals only arise from constructed ASTs (the parser
        # builds Unary('-')); render them re-parseably
        if expr.value < 0:
            return _wrap(f"0 - {-expr.value}", _PRECEDENCE["-"], parent_level)
        return str(expr.value)
    if isinstance(expr, FloatLit):
        return _float_text(expr.value)
    if isinstance(expr, Name):
        return expr.name
    if isinstance(expr, Index):
        return f"{expr.name}[{_expr(expr.index, 0)}]"
    if isinstance(expr, Call):
        args = ", ".join(_expr(arg, 0) for arg in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, Unary):
        operand = _expr(expr.operand, _UNARY_LEVEL)
        return _wrap(f"{expr.op}{operand}", _UNARY_LEVEL, parent_level)
    if isinstance(expr, Cast):
        operand = _expr(expr.operand, _UNARY_LEVEL)
        return _wrap(f"({expr.target}){operand}", _UNARY_LEVEL, parent_level)
    if isinstance(expr, Binary):
        level = _PRECEDENCE.get(expr.op)
        if level is None:
            raise ReproError(f"unknown binary operator {expr.op!r}")
        # left-associative: the left child may share this level, the
        # right child must bind strictly tighter to reproduce the tree
        left = _expr(expr.left, level)
        right = _expr(expr.right, level + 1)
        return _wrap(f"{left} {expr.op} {right}", level, parent_level)
    raise ReproError(f"unknown expression node {type(expr).__name__}")


def _wrap(text: str, level: int, parent_level: int) -> str:
    return f"({text})" if level < parent_level else text


def _stmt_lines(stmt: Stmt, indent: int) -> list[str]:
    pad = "    " * indent
    if isinstance(stmt, VarDecl):
        if stmt.init is None:
            return [f"{pad}{stmt.var_type} {stmt.name};"]
        return [f"{pad}{stmt.var_type} {stmt.name} = {print_expr(stmt.init)};"]
    if isinstance(stmt, Assign):
        return [f"{pad}{print_expr(stmt.target)} = {print_expr(stmt.value)};"]
    if isinstance(stmt, ExprStmt):
        return [f"{pad}{print_expr(stmt.expr)};"]
    if isinstance(stmt, Return):
        if stmt.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {print_expr(stmt.value)};"]
    if isinstance(stmt, Break):
        return [f"{pad}break;"]
    if isinstance(stmt, Continue):
        return [f"{pad}continue;"]
    if isinstance(stmt, Block):
        lines = [f"{pad}{{"]
        for inner in stmt.statements:
            lines.extend(_stmt_lines(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, If):
        lines = [f"{pad}if ({print_expr(stmt.cond)}) {{"]
        for inner in stmt.then_body.statements:
            lines.extend(_stmt_lines(inner, indent + 1))
        if stmt.else_body is not None:
            lines.append(f"{pad}}} else {{")
            for inner in stmt.else_body.statements:
                lines.extend(_stmt_lines(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while ({print_expr(stmt.cond)}) {{"]
        for inner in stmt.body.statements:
            lines.extend(_stmt_lines(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, For):
        init = _clause(stmt.init)
        cond = "" if stmt.cond is None else print_expr(stmt.cond)
        step = _clause(stmt.step)
        lines = [f"{pad}for ({init}; {cond}; {step}) {{"]
        for inner in stmt.body.statements:
            lines.extend(_stmt_lines(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise ReproError(f"unknown statement node {type(stmt).__name__}")


def _clause(stmt: Stmt | None) -> str:
    """A for-header init/step clause, without the trailing ``;``."""
    if stmt is None:
        return ""
    [line] = _stmt_lines(stmt, 0)
    return line[:-1] if line.endswith(";") else line


def _literal_text(value: int | float) -> str:
    if isinstance(value, float):
        return _float_text(value)
    return str(value)


def print_global(decl: GlobalDecl) -> str:
    text = f"{decl.var_type} {decl.name}"
    if decl.array_size is not None:
        text += f"[{decl.array_size}]"
    if decl.init is not None:
        if decl.array_size is not None or len(decl.init) > 1:
            text += " = {" + ", ".join(_literal_text(v) for v in decl.init) + "}"
        else:
            text += f" = {_literal_text(decl.init[0])}"
    return text + ";"


def print_function(func: FuncDecl) -> str:
    params = ", ".join(f"{p.var_type} {p.name}" for p in func.params)
    lines = [f"{func.ret_type} {func.name}({params}) {{"]
    for stmt in func.body.statements:
        lines.extend(_stmt_lines(stmt, 1))
    lines.append("}")
    return "\n".join(lines)


def print_unit(unit: TranslationUnit) -> str:
    """Render a whole translation unit as normalized MiniC source."""
    chunks = [print_global(g) for g in unit.globals]
    chunks.extend(print_function(f) for f in unit.functions)
    return "\n\n".join(chunks) + "\n"


__all__ = ["print_expr", "print_function", "print_global", "print_unit"]
