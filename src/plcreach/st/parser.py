"""Recursive-descent parser for the Structured Text subset.

Binding strength, loosest first: OR, AND, NOT, comparisons, additive,
multiplicative, unary minus.  Call syntax in statement position covers both
function-block invocations and intrinsics; elaboration tells them apart.
"""

from __future__ import annotations

from . import ast
from .lexer import Token, tokenize

_CMP_OPS = {"=", "<>", "<", "<=", ">", ">="}
_ADD_OPS = {"+", "-"}
_MUL_OPS = {"*", "/"}


class ParseError(Exception):
    def __init__(self, msg: str, tok: Token):
        super().__init__(f"{tok.line}:{tok.col}: {msg}")
        self.token = tok


class _Parser:
    def __init__(self, toks: list):
        self.toks = toks
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        j = min(self.i + offset, len(self.toks) - 1)
        return self.toks[j]

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
        while True:
            tok = self.peek()
            if tok.kind == "eof" or (tok.kind == "kw" and tok.text in stop):
                return tuple(stmts)
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
            if self.at("id") and self.peek(1).kind == "op" and self.peek(1).text == ":=":
                name = self.next().text
                self.next()
                args.append(ast.ArgBind(name, self.parse_expr(), pos))
            else:
                args.append(ast.ArgBind(None, self.parse_expr(), pos))
            if not self.accept("op", ","):
                return tuple(args)

    # -- expressions -------------------------------------------------------

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
        raise ParseError(f"expected an expression, got {tok.text or tok.kind!r}", tok)


def parse_file(src: str) -> list:
    """Parse a source text into its list of program units."""
    return _Parser(tokenize(src)).parse_units()


def parse_expression(src: str) -> ast.Expr:
    """Parse a standalone expression (reachability predicates, flow terms)."""
    p = _Parser(tokenize(src))
    expr = p.parse_expr()
    if not p.at("eof"):
        raise ParseError("trailing input after expression", p.peek())
    return expr
