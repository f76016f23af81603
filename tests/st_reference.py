"""The ST front end's earlier lexer and expression parser, and the check
that the present ones give the same output.

`tokenize` below is the character-by-character lexer that the one-pattern
lexer replaced, and `ReferenceParser` is the recursive-descent expression
parser, one method per binding level, that precedence climbing replaced.
The statement half of the parser did not change and is shared.

`differences(seed, count)` runs both front ends on every bundled source,
the built-in blocks and `count` generated inputs, some of them malformed,
and lists every input on which they differ: in any token's kind, text,
value, line or column, in any tree (positions included), or in the class
or message of an error.  It needs no test runner:

    PYTHONPATH=src python tests/st_reference.py [SEED] [COUNT]
"""

import random
from itertools import chain
import re
import sys
from fractions import Fraction
from importlib import resources

from plcreach.st import ast, builtins, lexer, parser
from plcreach.st.lexer import _ANN_RE, _IDENT_RE, KEYWORDS, LexError, Token, _parse_ann

# -- the earlier lexer ---------------------------------------------------------

_OPS = (":=", "<=", ">=", "<>", "=", "<", ">", "+", "-", "*", "/", "(", ")", ";", ",", ".", ":")
_NUM_RE = re.compile(r"\d+(\.\d+)?")


def tokenize(src: str) -> list:
    toks = []
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


# -- the earlier expression parser ---------------------------------------------

_CMP_OPS = {"=", "<>", "<", "<=", ">", ">="}
_ADD_OPS = {"+", "-"}
_MUL_OPS = {"*", "/"}


class ReferenceParser(parser._Parser):
    """Binding strength, loosest first: OR, AND, NOT, comparisons,
    additive, multiplicative, unary minus."""

    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        lhs = self.parse_and()
        while self.at("kw", "OR"):
            pos = self.pos()
            self.next()
            lhs = ast.BinOp("OR", lhs, self.parse_and(), pos)
        return lhs

    def parse_and(self) -> ast.Expr:
        lhs = self.parse_not()
        while self.at("kw", "AND"):
            pos = self.pos()
            self.next()
            lhs = ast.BinOp("AND", lhs, self.parse_not(), pos)
        return lhs

    def parse_not(self) -> ast.Expr:
        if self.at("kw", "NOT"):
            pos = self.pos()
            self.next()
            return ast.UnOp("NOT", self.parse_not(), pos)
        return self.parse_cmp()

    def parse_cmp(self) -> ast.Expr:
        lhs = self.parse_add()
        while self.at("op") and self.peek().text in _CMP_OPS:
            pos = self.pos()
            op = self.next().text
            lhs = ast.BinOp(op, lhs, self.parse_add(), pos)
        return lhs

    def parse_add(self) -> ast.Expr:
        lhs = self.parse_mul()
        while self.at("op") and self.peek().text in _ADD_OPS:
            pos = self.pos()
            op = self.next().text
            lhs = ast.BinOp(op, lhs, self.parse_mul(), pos)
        return lhs

    def parse_mul(self) -> ast.Expr:
        lhs = self.parse_unary()
        while self.at("op") and self.peek().text in _MUL_OPS:
            pos = self.pos()
            op = self.next().text
            lhs = ast.BinOp(op, lhs, self.parse_unary(), pos)
        return lhs

    def parse_unary(self) -> ast.Expr:
        if self.at("op", "-"):
            pos = self.pos()
            self.next()
            return ast.UnOp("-", self.parse_unary(), pos)
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        pos = self.pos()
        if self.accept("op", "("):
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        if tok.kind == "int":
            self.next()
            return ast.Lit(tok.value, pos)
        if tok.kind == "real":
            self.next()
            return ast.Lit(tok.value, pos)
        if tok.kind == "string":
            self.next()
            return ast.Lit(tok.value, pos)
        if self.accept("kw", "TRUE"):
            return ast.Lit(True, pos)
        if self.accept("kw", "FALSE"):
            return ast.Lit(False, pos)
        if tok.kind == "id":
            name = self.next().text
            if self.accept("op", "("):
                args = []
                if not self.at("op", ")"):
                    args.append(self.parse_expr())
                    while self.accept("op", ","):
                        args.append(self.parse_expr())
                self.expect("op", ")")
                return ast.CallExpr(name, tuple(args), pos)
            if self.accept("op", "."):
                fld = self.expect("id").text
                return ast.FieldRef(name, fld, pos)
            return ast.VarRef(name, pos)
        raise parser.ParseError(f"expected an expression, got {tok.text or tok.kind!r}", tok)


# -- generated inputs ----------------------------------------------------------

_LEAVES = ("x", "y2", "_t", "ORx", "NOTE", "andy", "ifx", "0", "7", "42", "3.25", "10.0",
           "'T1'", '"a b"', "''", "TRUE", "false", "tRuE", "b.OUT", "c.VALID", "thisBlock")
_INFIX_TEXTS = ("OR", "or", "AND", "And", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/")
_PREFIX_TEXTS = ("NOT", "not", "-")
_SPACES = ("", " ", "", " ", "", " ", "\n", "\t", "\r\n", "(**)", "//\n", "(*\n*)")
_JUNK = ("(", ")", ",", ".", ":=", ";", ":", "?", "'", '"', "(*", "*)", "//", "NOT", "AND",
         "-", "1.", "..", "@", "é", "\x0c", "٣", "٣.٥", "END_IF", "1a",
         "//assertTime(1, 2)\n", "//delay(a, 1)\n", "THEN", "#", "=>", "<<")


def _expr_pieces(rng: random.Random, depth: int) -> list:
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return [rng.choice(_LEAVES)]
    if roll < 0.7:
        op = rng.choice(_INFIX_TEXTS)
        return _expr_pieces(rng, depth - 1) + [op] + _expr_pieces(rng, depth - 1)
    if roll < 0.8:
        return [rng.choice(_PREFIX_TEXTS)] + _expr_pieces(rng, depth - 1)
    if roll < 0.9:
        return ["("] + _expr_pieces(rng, depth - 1) + [")"]
    out = [rng.choice(("isConnected(", "f("))]
    for k in range(rng.randrange(3)):
        out += ([","] if k else []) + _expr_pieces(rng, depth - 1)
    return out + [")"]


def _program_pieces(rng: random.Random) -> list:
    out = ["PROGRAM", "P", "VAR", "x", ":", "INT", ":=", "1", ";", "END_VAR"]
    for _ in range(rng.randrange(1, 3)):
        roll = rng.random()
        if roll < 0.4:
            out += ["x", ":="] + _expr_pieces(rng, 3) + [";"]
        elif roll < 0.6:
            out += ["IF"] + _expr_pieces(rng, 3) + ["THEN", "x", ":=", "2", ";", "ELSE",
                                                      "RETURN", ";", "END_IF", ";"]
        elif roll < 0.7:
            out += ["WHILE"] + _expr_pieces(rng, 2) + ["DO", "b.ENC", ":=", "TRUE", ";",
                                                      "END_WHILE"]
        elif roll < 0.85:
            out += ["b", "(", "ENC", ":="] + _expr_pieces(rng, 2) + [",", "'T2'", ")", ";"]
        else:
            out += [rng.choice(("//assertTime(2, 7)", "//delay(P1, P2, 1/3, 4.5)",
                                "// delay note", "//assertTime(1)")), "\n"]
    return out + ["END_PROGRAM"]


def _malform(rng: random.Random, pieces: list) -> list:
    pieces = list(pieces)
    roll = rng.random()
    k = rng.randrange(len(pieces))
    if roll < 0.3:
        del pieces[k]
    elif roll < 0.6:
        pieces.insert(k, rng.choice(_JUNK))
    elif roll < 0.8:
        j = rng.randrange(len(pieces))
        pieces[j], pieces[k] = pieces[k], pieces[j]
    else:
        pieces = pieces[:k] + [pieces[k][: rng.randrange(len(pieces[k]) + 1)]]
    return pieces


def generated(rng: random.Random, count: int):
    """`count` (kind, text) inputs, kind "expr" or "file"; about a third
    malformed."""
    for _ in range(count):
        kind = "file" if rng.random() < 0.02 else "expr"
        pieces = _program_pieces(rng) if kind == "file" else _expr_pieces(rng, rng.choice((2, 3)))
        if rng.random() < 0.35:
            pieces = _malform(rng, pieces)
        text = rng.choice(_SPACES[:3])
        for piece in pieces:
            text += piece + rng.choice(_SPACES)
        yield kind, text


def bundled_sources() -> list:
    data = resources.files("plcreach.bench") / "data"
    files = sorted((p for p in data.iterdir() if p.name.endswith(".st")), key=lambda p: p.name)
    return [p.read_text() for p in files] + [
        builtins.CONNECT_SRC, builtins.USEND_SRC, builtins.URCV_SRC]


# -- the comparison ------------------------------------------------------------

_ENTRY = {"expr": "parse_lone_expr", "file": "parse_units"}  # kind -> parser method


def _run(fn, arg):
    try:
        return fn(arg)
    except (LexError, parser.ParseError) as exc:
        return exc


def _form(got):
    """What must agree: an error's class and message, every field of every
    token, and the `repr` of a tree, which shows every position."""
    if isinstance(got, Exception):
        return type(got), str(got)
    if isinstance(got, list) and got and isinstance(got[0], Token):
        return [(t.kind, t.text, repr(t.value), t.line, t.col) for t in got]
    return repr(got)


def differences(seed: int = 0, count: int = 30_000, tally: dict = None) -> list:
    """(text, what, reference's form, present form) for every input on
    which the two front ends differ.  Both parsers read the present
    tokens once those agree.  `tally`, if given, counts the outcomes:
    "parsed", or the class name of the error raised."""
    rng = random.Random(seed)
    inputs = chain((("file", src) for src in bundled_sources()), generated(rng, count))
    out = []
    for kind, text in inputs:
        toks = _run(lexer.tokenize, text)
        what, want, got = "tokens", _form(_run(tokenize, text)), _form(toks)
        if want == got and not isinstance(toks, Exception):
            what, entry = "trees", _ENTRY[kind]
            want = _form(_run(lambda t: getattr(ReferenceParser(t), entry)(), toks))
            got = _form(_run(lambda t: getattr(parser._Parser(t), entry)(), toks))
        if want != got:
            out.append((text, what, want, got))
        if tally is not None:
            key = got[0].__name__ if isinstance(got, tuple) else "parsed"
            tally[key] = tally.get(key, 0) + 1
    return out


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 30_000
    tally: dict = {}
    diffs = differences(seed, count, tally)
    for text, what, want, got in diffs[:5]:
        print(f"{what} differ on {text!r}:\n  reference: {want}\n  present:   {got}")
    print(f"Python {sys.version.split()[0]}, seed {seed}: {sum(tally.values())} inputs "
          f"({', '.join(f'{v} {k}' for k, v in sorted(tally.items()))}), "
          f"{len(diffs)} differing")
    sys.exit(1 if diffs else 0)
