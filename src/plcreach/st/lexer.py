"""Tokenizer for the Structured Text subset.

Produces a flat token stream with 1-based line/column positions.  Reserved
words are matched case-insensitively (their canonical spelling is stored
upper-case); identifiers keep their case.  Line comments of the shape
//assertTime(a, b) and //delay(p, q, a, b) are semantic and come out as
single "ann" tokens; every other comment is skipped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from ..values import rat

KEYWORDS = {
    "PROGRAM",
    "END_PROGRAM",
    "FUNCTION_BLOCK",
    "END_FUNCTION_BLOCK",
    "VAR_INPUT",
    "VAR_OUTPUT",
    "VAR",
    "END_VAR",
    "IF",
    "THEN",
    "ELSE",
    "END_IF",
    "WHILE",
    "DO",
    "END_WHILE",
    "RETURN",
    "TRUE",
    "FALSE",
    "AND",
    "OR",
    "NOT",
}

_OPS = (":=", "<=", ">=", "<>", "=", "<", ">", "+", "-", "*", "/", "(", ")", ";", ",", ".", ":")

_ANN_RE = re.compile(r"^\s*(assertTime|delay)\s*\(([^)]*)\)\s*$")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"\d+(\.\d+)?")


class LexError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "kw" | "id" | "int" | "real" | "string" | "op" | "ann" | "eof"
    text: str
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)
    value: object = None


def tokenize(src: str) -> list:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)

    def advance(text: str):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if src.startswith("//", i):
            end = src.find("\n", i)
            end = n if end < 0 else end
            body = src[i + 2 : end]
            m = _ANN_RE.match(body)
            if m:
                toks.append(
                    Token("ann", src[i:end], line, col, value=_parse_ann(m, line, col))
                )
            advance(src[i:end])
            i = end
            continue
        if src.startswith("(*", i):
            end = src.find("*)", i + 2)
            if end < 0:
                raise LexError("unterminated block comment", line, col)
            advance(src[i : end + 2])
            i = end + 2
            continue
        if ch in "\"'":
            end = src.find(ch, i + 1)
            if end < 0:
                raise LexError("unterminated string literal", line, col)
            text = src[i : end + 1]
            toks.append(Token("string", text, line, col, value=src[i + 1 : end]))
            advance(text)
            i = end + 1
            continue
        m = _NUM_RE.match(src, i)
        if m:
            text = m.group(0)
            if "." in text:
                toks.append(Token("real", text, line, col, value=Fraction(text)))
            else:
                toks.append(Token("int", text, line, col, value=int(text)))
            advance(text)
            i = m.end()
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            text = m.group(0)
            if text.upper() in KEYWORDS:
                toks.append(Token("kw", text.upper(), line, col))
            else:
                toks.append(Token("id", text, line, col))
            advance(text)
            i = m.end()
            continue
        for op in _OPS:
            if src.startswith(op, i):
                toks.append(Token("op", op, line, col))
                advance(op)
                i += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def _parse_ann(m: re.Match, line: int, col: int):
    name = m.group(1)
    args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
    if name == "assertTime":
        if len(args) != 2:
            raise LexError("assertTime expects (min, max)", line, col)
        return ("assertTime", _ann_num(args[0], line, col), _ann_num(args[1], line, col))
    if len(args) != 4:
        raise LexError("delay expects (src, dst, min, max)", line, col)
    for ident in args[:2]:
        if not _IDENT_RE.fullmatch(ident):
            raise LexError(f"delay expects an identifier, got {ident!r}", line, col)
    return (
        "delay",
        args[0],
        args[1],
        _ann_num(args[2], line, col),
        _ann_num(args[3], line, col),
    )


def _ann_num(text: str, line: int, col: int):
    """An annotation bound, in the form `values.rat` gives: the engine
    takes it as it is."""
    try:
        return rat(text)
    except ValueError as exc:
        raise LexError(f"bad annotation number {text!r}", line, col) from exc
