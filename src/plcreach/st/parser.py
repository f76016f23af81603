"""Parser for the Structured Text subset.

Program units, declarations and statements are parsed by recursive
descent; expressions by precedence climbing over one binding table.  Call
syntax in statement position covers both function-block invocations and
intrinsics; elaboration tells them apart.

No tree is deeper than MAX_DEPTH levels, a parenthesised group counting as
one: the engine hashes and walks trees recursively, so deeper nesting is a
ParseError at the token that reaches past the limit.
"""

from __future__ import annotations

from . import ast
from .lexer import Token, tokenize

# The binding table: an operator binds tighter the higher its power, and
# an infix one associates to the left.  A prefix operator's operand holds
# only operators at least as tight as itself: `NOT a = b` is `NOT (a = b)`,
# `NOT a AND b` is `(NOT a) AND b`, and NOT cannot follow a comparison or
# an arithmetic operator.  Keyed by token text, which only an operator or
# a reserved word has.
_INFIX = {"OR": 1, "AND": 2, "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
          "+": 5, "-": 5, "*": 6, "/": 6}
_PREFIX = {"NOT": 3, "-": 7}

MAX_DEPTH = 100


class ParseError(Exception):
    def __init__(self, msg: str, tok: Token):
        super().__init__(f"{tok.line}:{tok.col}: {msg}")
        self.token = tok


class _Parser:
    def __init__(self, toks: list):
        self.toks = toks
        self.i = 0
        self.depth = 0  # levels open above the construct being parsed

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]  # `next` stops at the closing eof token

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, text: str = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str = None) -> Token:
        if not self.at(kind, text):
            want = text or kind
            got = self.peek().text or self.peek().kind
            raise ParseError(f"expected {want!r}, got {got!r}", self.peek())
        return self.next()

    def accept(self, kind: str, text: str = None):
        if self.at(kind, text):
            return self.next()
        return None

    def pos(self) -> ast.Pos:
        tok = self.peek()
        return ast.Pos(tok.line, tok.col)

    # -- program units -----------------------------------------------------

    def parse_units(self) -> list:
        units = []
        while not self.at("eof"):
            units.append(self.parse_pou())
        return units

    def parse_pou(self) -> ast.Pou:
        pos = self.pos()
        if self.accept("kw", "PROGRAM"):
            kind, end = "program", "END_PROGRAM"
        else:
            self.expect("kw", "FUNCTION_BLOCK")
            kind, end = "function_block", "END_FUNCTION_BLOCK"
        name = self.expect("id").text
        inputs, outputs, locals_ = (), (), ()
        while True:
            if self.accept("kw", "VAR_INPUT"):
                inputs += self.parse_decls()
            elif self.accept("kw", "VAR_OUTPUT"):
                outputs += self.parse_decls()
            elif self.accept("kw", "VAR"):
                locals_ += self.parse_decls()
            else:
                break
        body = self.parse_body({end})
        self.expect("kw", end)
        self.accept("op", ";")
        return ast.Pou(kind, name, inputs, outputs, locals_, body, pos)

    def parse_decls(self) -> tuple:
        decls = []
        while not self.at("kw", "END_VAR"):
            pos = self.pos()
            names = [self.expect("id").text]
            while self.accept("op", ","):
                names.append(self.expect("id").text)
            self.expect("op", ":")
            type_name = self.expect("id").text
            init = None
            if self.accept("op", ":="):
                init = self.parse_expr()
            self.expect("op", ";")
            for nm in names:
                decls.append(ast.VarDecl(nm, type_name, init, pos))
        self.expect("kw", "END_VAR")
        return tuple(decls)

    # -- statements --------------------------------------------------------

    def parse_body(self, stop: set) -> tuple:
        stmts = []
        self.depth += 1
        while True:
            tok = self.peek()
            if tok.kind == "eof" or (tok.kind == "kw" and tok.text in stop):
                self.depth -= 1
                return tuple(stmts)
            self.check_depth(0, tok)
            stmts.append(self.parse_stmt())

    def parse_stmt(self) -> ast.Stmt:
        tok = self.peek()
        pos = self.pos()
        if tok.kind == "ann":
            self.next()
            val = tok.value
            if val[0] == "assertTime":
                return ast.AssertTimeAnn(val[1], val[2], pos)
            return ast.DelayAnn(val[1], val[2], val[3], val[4], pos)
        if self.accept("kw", "IF"):
            cond = self.parse_expr()
            self.expect("kw", "THEN")
            then_body = self.parse_body({"ELSE", "END_IF"})
            else_body = ()
            if self.accept("kw", "ELSE"):
                else_body = self.parse_body({"END_IF"})
            self.expect("kw", "END_IF")
            self.accept("op", ";")
            return ast.IfStmt(cond, then_body, else_body, pos)
        if self.accept("kw", "WHILE"):
            cond = self.parse_expr()
            self.expect("kw", "DO")
            body = self.parse_body({"END_WHILE"})
            self.expect("kw", "END_WHILE")
            self.accept("op", ";")
            return ast.WhileStmt(cond, body, pos)
        if self.accept("kw", "RETURN"):
            self.expect("op", ";")
            return ast.ReturnStmt(pos)
        if tok.kind != "id":
            raise ParseError(f"expected a statement, got {tok.text or tok.kind!r}", tok)
        name = self.next().text
        if self.accept("op", "("):
            args = self.parse_args()
            self.expect("op", ")")
            self.expect("op", ";")
            return ast.CallStmt(name, args, pos)
        if self.accept("op", "."):
            fld = self.expect("id").text
            target = ast.FieldRef(name, fld, pos)
        else:
            target = ast.VarRef(name, pos)
        self.expect("op", ":=")
        expr = self.parse_expr()
        self.expect("op", ";")
        return ast.Assign(target, expr, pos)

    def parse_args(self) -> tuple:
        args = []
        if self.at("op", ")"):
            return ()
        while True:
            pos = self.pos()
            if self.at("id") and self.toks[self.i + 1].text == ":=":
                name = self.next().text
                self.next()
                args.append(ast.ArgBind(name, self.parse_expr(), pos))
            else:
                args.append(ast.ArgBind(None, self.parse_expr(), pos))
            if not self.accept("op", ","):
                return tuple(args)

    # -- expressions -------------------------------------------------------

    def parse_lone_expr(self) -> ast.Expr:
        """An expression that ends the input."""
        expr = self.parse_expr()
        if not self.at("eof"):
            raise ParseError("trailing input after expression", self.peek())
        return expr

    def parse_expr(self) -> ast.Expr:
        return self.climb(1)[0]

    def climb(self, min_bp: int) -> tuple:
        """The expression at the next token, stopping at the first infix
        operator that binds looser than `min_bp`, and its height (0 for a
        leaf).  Each call nests one level deeper."""
        self.depth += 1
        tok = self.peek()
        self.check_depth(0, tok)
        bp = _PREFIX.get(tok.text, 0)
        if bp >= min_bp:
            self.next()
            operand, height = self.climb(bp)
            lhs, height = ast.UnOp(tok.text, operand, ast.Pos(tok.line, tok.col)), height + 1
        else:
            lhs, height = self.parse_primary()
        while _INFIX.get(self.peek().text, 0) >= min_bp:
            tok = self.next()
            rhs, rhs_height = self.climb(_INFIX[tok.text] + 1)
            height = max(height, rhs_height) + 1
            self.check_depth(height, tok)
            lhs = ast.BinOp(tok.text, lhs, rhs, ast.Pos(tok.line, tok.col))
        self.depth -= 1
        return lhs, height

    def check_depth(self, height: int, tok: Token):
        """Refuse, at `tok`, a tree that would reach deeper than MAX_DEPTH:
        `self.depth` levels are open above a subtree `height` levels high."""
        if self.depth + height > MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", tok)

    def parse_primary(self) -> tuple:
        """A literal, name, field, call or parenthesised expression, with
        its height."""
        tok = self.next()
        pos = ast.Pos(tok.line, tok.col)
        if tok.kind in ("int", "real", "string"):
            return ast.Lit(tok.value, pos), 0
        if tok.text in ("TRUE", "FALSE"):  # only a "kw" token has this text
            return ast.Lit(tok.text == "TRUE", pos), 0
        if tok.text == "(":
            inner = self.climb(1)
            self.expect("op", ")")
            return inner
        if tok.kind != "id":
            raise ParseError(f"expected an expression, got {tok.text or tok.kind!r}", tok)
        if self.accept("op", "("):
            args = [] if self.at("op", ")") else [self.climb(1)]
            while args and self.accept("op", ","):
                args.append(self.climb(1))
            self.expect("op", ")")
            height = max((h for _, h in args), default=-1) + 1
            return ast.CallExpr(tok.text, tuple(a for a, _ in args), pos), height
        if self.accept("op", "."):
            return ast.FieldRef(tok.text, self.expect("id").text, pos), 0
        return ast.VarRef(tok.text, pos), 0


def parse_file(src: str) -> list:
    """Parse a source text into its list of program units."""
    return _Parser(tokenize(src)).parse_units()


def parse_expression(src: str) -> ast.Expr:
    """Parse a standalone expression (reachability predicates, flow terms)."""
    return _Parser(tokenize(src)).parse_lone_expr()
