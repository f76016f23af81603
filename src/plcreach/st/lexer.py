"""Tokenizer for the Structured Text subset.

One compiled pattern states every token shape, one named alternative
each, tried in order; the comment beside each says what becomes of it.
Reserved words are matched in any case and stored upper-case;
identifiers keep their case.  A line comment of the shape
//assertTime(a, b) or //delay(p, q, a, b) is an "ann" token.  Positions
are 1-based: a token's line and column are those of its first character.
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

_TOKEN_RE = re.compile(
    r"""(?P<blank>[ \t\r\n]+)                   # skipped
      | (?P<comment>//[^\n]*)                  # skipped, unless an annotation
      | (?P<block>\(\*.*?\*\))                 # skipped
      | (?P<string>"[^"]*"|'[^']*')            # no escapes; the value is inside
      | (?P<unclosed>\(\*|["'])                # a string or comment never closed
      | (?P<real>\d+\.\d+)                     # a Fraction
      | (?P<int>\d+)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)         # a "kw" token if reserved
      | (?P<op>:=|<=|>=|<>|[=<>+\-*/();,.:])
      | (?P<other>.)                           # an error""",
    re.VERBOSE | re.DOTALL,
)
_VALUE = {"string": lambda text: text[1:-1], "real": Fraction, "int": int}

_ANN_RE = re.compile(r"^\s*(assertTime|delay)\s*\(([^)]*)\)\s*$")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
    line, line_start = 1, 0  # line_start: offset of the line's first character
    for m in _TOKEN_RE.finditer(src):
        kind, text = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "id" and text.upper() in KEYWORDS:
            toks.append(Token("kw", text.upper(), line, col))
        elif kind == "id" or kind == "op":
            toks.append(Token(kind, text, line, col))
        elif kind in _VALUE:
            toks.append(Token(kind, text, line, col, value=_VALUE[kind](text)))
        elif kind == "comment":
            ann = _ANN_RE.match(text[2:])
            if ann:
                toks.append(Token("ann", text, line, col, value=_parse_ann(ann, line, col)))
        elif kind == "unclosed":
            what = "block comment" if text == "(*" else "string literal"
            raise LexError(f"unterminated {what}", line, col)
        elif kind == "other":
            raise LexError(f"unexpected character {text!r}", line, col)
        if "\n" in text:
            line += text.count("\n")
            line_start = m.start() + text.rindex("\n") + 1
    toks.append(Token("eof", "", line, len(src) - line_start + 1))
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
