"""Syntax tree for the Structured Text subset, plus a pretty-printer.

Nodes are frozen dataclasses so they can live inside hashable machine
configurations.  Source positions ride along but never take part in
equality or hashing.  A node hashes once: the hash of its compared fields
is kept in the instance dict on first use, so hashing a configuration
costs one lookup per statement instead of a walk of every tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union


@dataclass(frozen=True)
class Pos:
    line: int = 0
    col: int = 0


_NOPOS = Pos()


class _Node:
    """Base of every node: the field hash, computed once and kept."""

    # Kept by hand, not by `cached_property`, whose first read takes a
    # lock on Python 3.10 and 3.11.
    def __hash__(self):
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = self._fields_hash()
        return h


def _node(cls):
    """Make `cls` a frozen dataclass node that hashes once."""
    cls = dataclass(frozen=True)(cls)
    # the generated hash of the compared fields, behind the cached one
    cls._fields_hash, cls.__hash__ = cls.__hash__, _Node.__hash__
    return cls


# -- expressions ------------------------------------------------------------


@_node
class Lit(_Node):
    value: object  # int | Fraction | bool | str, as written in the program
    pos: Pos = field(compare=False, default=_NOPOS)

    def __eq__(self, other):
        # `True == 1`, but TRUE is not the literal 1: the classes must match.
        if other.__class__ is not Lit:
            return NotImplemented
        return self.value.__class__ is other.value.__class__ and self.value == other.value


@_node
class VarRef(_Node):
    name: str
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class FieldRef(_Node):
    base: str
    field: str
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class BinOp(_Node):
    op: str  # + - * / = <> < <= > >= AND OR
    lhs: "Expr"
    rhs: "Expr"
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class UnOp(_Node):
    op: str  # - NOT
    operand: "Expr"
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class CallExpr(_Node):
    """Intrinsic use in expression position, e.g. isConnected(ID)."""

    name: str
    args: tuple
    pos: Pos = field(compare=False, default=_NOPOS)


Expr = Union[Lit, VarRef, FieldRef, BinOp, UnOp, CallExpr]


# -- statements -------------------------------------------------------------


@_node
class Assign(_Node):
    target: Union[VarRef, FieldRef]
    expr: Expr
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class IfStmt(_Node):
    cond: Expr
    then_body: tuple
    else_body: tuple
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class WhileStmt(_Node):
    cond: Expr
    body: tuple
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class ReturnStmt(_Node):
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class ArgBind(_Node):
    name: Optional[str]  # None for positional
    expr: Expr
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class CallStmt(_Node):
    """Function-block invocation or intrinsic call in statement position."""

    name: str
    args: tuple
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class AssertTimeAnn(_Node):
    lo: object  # int | Fraction, in the form `values.rat` gives
    hi: object
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class DelayAnn(_Node):
    a: str
    b: str
    lo: object  # int | Fraction, in the form `values.rat` gives
    hi: object
    pos: Pos = field(compare=False, default=_NOPOS)


Stmt = Union[Assign, IfStmt, WhileStmt, ReturnStmt, CallStmt, AssertTimeAnn, DelayAnn]


# -- declarations -----------------------------------------------------------


@_node
class VarDecl(_Node):
    name: str
    type_name: str  # INT, DINT, REAL, BOOL, STRING, ANY, or an FB name
    init: Optional[Expr] = None
    pos: Pos = field(compare=False, default=_NOPOS)


@_node
class Pou(_Node):
    kind: str  # "program" | "function_block"
    name: str
    inputs: tuple
    outputs: tuple
    locals: tuple
    body: tuple
    pos: Pos = field(compare=False, default=_NOPOS)


# -- pretty-printer ---------------------------------------------------------


def _decimal(q: Fraction) -> str:
    """`q` as the exact decimal, with at least one place, that the lexer
    reads back as `q`.  A REAL literal has one: it was lexed from digits."""
    for places in range(1, q.denominator.bit_length() + 1):
        scale = 10**places
        if scale % q.denominator == 0:
            digits = str(q.numerator * scale // q.denominator).rjust(places + 1, "0")
            return f"{digits[:-places]}.{digits[-places:]}"
    raise ValueError(f"{q} has no finite decimal expansion")


def expr_to_st(e: Expr) -> str:
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return "TRUE" if e.value else "FALSE"
        if isinstance(e.value, str):
            # in the quote character the text lacks: a lexed string has one
            quote = "'" if '"' in e.value else '"'
            return quote + e.value + quote
        if isinstance(e.value, Fraction):
            return _decimal(e.value)
        return str(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, FieldRef):
        return f"{e.base}.{e.field}"
    if isinstance(e, UnOp):
        inner = expr_to_st(e.operand)
        if isinstance(e.operand, (BinOp, UnOp)):
            inner = f"({inner})"
        return f"NOT {inner}" if e.op == "NOT" else f"-{inner}"
    if isinstance(e, BinOp):
        lhs, rhs = expr_to_st(e.lhs), expr_to_st(e.rhs)
        if isinstance(e.lhs, (BinOp, UnOp)):
            lhs = f"({lhs})"
        if isinstance(e.rhs, (BinOp, UnOp)):
            rhs = f"({rhs})"
        return f"{lhs} {e.op} {rhs}"
    if isinstance(e, CallExpr):
        return "%s(%s)" % (e.name, ", ".join(expr_to_st(a) for a in e.args))
    raise TypeError(f"not an expression: {e!r}")


def _stmt_lines(s: Stmt, indent: str) -> list:
    if isinstance(s, Assign):
        return [f"{indent}{expr_to_st(s.target)} := {expr_to_st(s.expr)};"]
    if isinstance(s, IfStmt):
        out = [f"{indent}IF {expr_to_st(s.cond)} THEN"]
        for t in s.then_body:
            out.extend(_stmt_lines(t, indent + "    "))
        if s.else_body:
            out.append(f"{indent}ELSE")
            for t in s.else_body:
                out.extend(_stmt_lines(t, indent + "    "))
        out.append(f"{indent}END_IF;")
        return out
    if isinstance(s, WhileStmt):
        out = [f"{indent}WHILE {expr_to_st(s.cond)} DO"]
        for t in s.body:
            out.extend(_stmt_lines(t, indent + "    "))
        out.append(f"{indent}END_WHILE;")
        return out
    if isinstance(s, ReturnStmt):
        return [f"{indent}RETURN;"]
    if isinstance(s, CallStmt):
        parts = []
        for a in s.args:
            txt = expr_to_st(a.expr)
            parts.append(f"{a.name} := {txt}" if a.name else txt)
        return [f"{indent}{s.name}(%s);" % ", ".join(parts)]
    # An annotation bound prints as `str` gives it (`3`, `1/3`), which the
    # lexer reads back exactly.
    if isinstance(s, AssertTimeAnn):
        return [f"{indent}//assertTime({s.lo}, {s.hi})"]
    if isinstance(s, DelayAnn):
        return [f"{indent}//delay({s.a}, {s.b}, {s.lo}, {s.hi})"]
    raise TypeError(f"not a statement: {s!r}")


def _decl_lines(section: str, decls: tuple, indent: str) -> list:
    if not decls:
        return []
    out = [f"{indent}{section}"]
    for d in decls:
        init = f" := {expr_to_st(d.init)}" if d.init is not None else ""
        out.append(f"{indent}    {d.name} : {d.type_name}{init};")
    out.append(f"{indent}END_VAR")
    return out


def pou_to_st(p: Pou) -> str:
    head = "PROGRAM" if p.kind == "program" else "FUNCTION_BLOCK"
    tail = "END_PROGRAM" if p.kind == "program" else "END_FUNCTION_BLOCK"
    lines = [f"{head} {p.name}"]
    lines.extend(_decl_lines("VAR_INPUT", p.inputs, "    "))
    lines.extend(_decl_lines("VAR_OUTPUT", p.outputs, "    "))
    lines.extend(_decl_lines("VAR", p.locals, "    "))
    for s in p.body:
        lines.extend(_stmt_lines(s, "    "))
    lines.append(tail)
    return "\n".join(lines) + "\n"
