"""Name resolution and static checks over parsed program units.

Builds a PouTable from user units plus the built-in communication blocks,
then rejects duplicate definitions, unknown types, instantiation cycles,
unresolved variables, and badly-bound calls before anything executes.
"""

from __future__ import annotations

from . import ast
from .builtins import INTRINSIC_ARITY, INTRINSIC_NAMES, builtin_pous

BASE_TYPES = {"INT", "DINT", "REAL", "BOOL", "STRING", "ANY"}


class ElabError(Exception):
    def __init__(self, msg: str, pos: ast.Pos = None):
        where = f"{pos.line}:{pos.col}: " if pos and pos.line else ""
        super().__init__(where + msg)
        self.pos = pos


class PouTable:
    """All known program units, keyed by name, with static checks applied."""

    def __init__(self, pous: dict):
        self.pous = pous
        self.programs = {n: p for n, p in pous.items() if p.kind == "program"}
        self.blocks = {n: p for n, p in pous.items() if p.kind == "function_block"}
        self._check_types()
        self._check_recursion()
        for pou in pous.values():
            _BodyChecker(self, pou).run()

    @classmethod
    def from_units(cls, units) -> "PouTable":
        pous = builtin_pous()
        for pou in units:
            if pou.name in pous:
                raise ElabError(f"duplicate definition of {pou.name}", pou.pos)
            pous[pou.name] = pou
        return cls(pous)

    def get(self, name: str) -> ast.Pou:
        if name not in self.pous:
            raise ElabError(f"unknown program unit {name}")
        return self.pous[name]

    # -- checks ------------------------------------------------------------

    def _check_types(self):
        for pou in self.pous.values():
            for decl in pou.inputs + pou.outputs + pou.locals:
                tn = decl.type_name
                if tn in BASE_TYPES:
                    continue
                if tn in self.blocks:
                    if decl.init is not None:
                        raise ElabError(
                            f"block instance {decl.name} cannot take an initializer",
                            decl.pos,
                        )
                    continue
                if tn in self.programs:
                    raise ElabError(
                        f"{decl.name}: programs cannot be instantiated", decl.pos
                    )
                raise ElabError(f"{decl.name}: unknown type {tn}", decl.pos)

    def _check_recursion(self):
        # Instance graph over function blocks; a cycle would mean unbounded state.
        graph = {
            name: sorted(
                {
                    d.type_name
                    for d in pou.inputs + pou.outputs + pou.locals
                    if d.type_name in self.blocks
                }
            )
            for name, pou in self.blocks.items()
        }
        state: dict = {}

        def visit(node, trail):
            if state.get(node) == "done":
                return
            if state.get(node) == "open":
                cycle = " -> ".join(trail + [node])
                raise ElabError(f"recursive block instantiation: {cycle}")
            state[node] = "open"
            for nxt in graph[node]:
                visit(nxt, trail + [node])
            state[node] = "done"

        for name in graph:
            visit(name, [])


class _BodyChecker:
    def __init__(self, table: PouTable, pou: ast.Pou):
        self.table = table
        self.pou = pou
        self.decls = {d.name: d for d in pou.inputs + pou.outputs + pou.locals}

    def run(self):
        for decl in self.decls.values():
            if decl.init is not None:
                self.check_expr(decl.init)
        for stmt in self.pou.body:
            self.check_stmt(stmt)

    def _instance_pou(self, name: str, pos: ast.Pos) -> ast.Pou:
        decl = self.decls.get(name)
        if decl is None:
            raise ElabError(f"{self.pou.name}: unresolved name {name}", pos)
        if decl.type_name not in self.table.blocks:
            raise ElabError(
                f"{self.pou.name}: {name} is not a block instance", pos
            )
        return self.table.blocks[decl.type_name]

    def check_stmt(self, s: ast.Stmt):
        if isinstance(s, ast.Assign):
            self.check_expr(s.expr)
            if isinstance(s.target, ast.VarRef) and s.target.name not in self.decls:
                raise ElabError(
                    f"{self.pou.name}: assignment to undeclared {s.target.name}", s.pos
                )
            self.check_expr(s.target)  # a target names a value, as an operand does
        elif isinstance(s, ast.IfStmt):
            self.check_expr(s.cond)
            for t in s.then_body + s.else_body:
                self.check_stmt(t)
        elif isinstance(s, ast.WhileStmt):
            self.check_expr(s.cond)
            for t in s.body:
                self.check_stmt(t)
        elif isinstance(s, ast.CallStmt):
            for a in s.args:
                self.check_expr(a.expr)
            if s.name in INTRINSIC_ARITY:
                self._check_arity(s.name, s.args, s.pos)
                if any(a.name is not None for a in s.args):
                    raise ElabError(f"{self.pou.name}: {s.name} takes positional arguments", s.pos)
                return
            callee = self._instance_pou(s.name, s.pos)
            inputs = [d.name for d in callee.inputs]
            positional = 0
            for a in s.args:
                if a.name is None:
                    positional += 1
                    if positional > len(inputs):
                        raise ElabError(
                            f"{self.pou.name}: too many arguments to {s.name}", s.pos
                        )
                elif a.name not in inputs:
                    raise ElabError(
                        f"{self.pou.name}: {s.name} has no input {a.name}", a.pos
                    )
        elif isinstance(s, (ast.ReturnStmt, ast.AssertTimeAnn, ast.DelayAnn)):
            pass
        else:
            raise ElabError(f"unsupported statement {s!r}")

    def _check_arity(self, name: str, args: tuple, pos: ast.Pos):
        want = INTRINSIC_ARITY[name]
        if len(args) != want:
            raise ElabError(f"{self.pou.name}: {name} expects {want} argument(s)", pos)

    def _check_field(self, f: ast.FieldRef):
        callee = self._instance_pou(f.base, f.pos)
        fields = {d.name: d for d in callee.inputs + callee.outputs + callee.locals}
        if f.field not in fields:
            raise ElabError(
                f"{self.pou.name}: {f.base} has no field {f.field}", f.pos
            )
        self._check_value(fields[f.field], f"{f.base}.{f.field}", f.pos)

    def _check_value(self, decl: ast.VarDecl, name: str, pos: ast.Pos):
        if decl.type_name in self.table.blocks:  # called, never read or assigned
            raise ElabError(f"{self.pou.name}: block instance {name} is not a value", pos)

    def check_expr(self, e: ast.Expr):
        if isinstance(e, ast.Lit):
            return
        if isinstance(e, ast.VarRef):
            if e.name in self.decls:
                self._check_value(self.decls[e.name], e.name, e.pos)
            elif e.name not in INTRINSIC_NAMES:
                raise ElabError(f"{self.pou.name}: unresolved name {e.name}", e.pos)
            return
        if isinstance(e, ast.FieldRef):
            self._check_field(e)
            return
        if isinstance(e, ast.BinOp):
            self.check_expr(e.lhs)
            self.check_expr(e.rhs)
            return
        if isinstance(e, ast.UnOp):
            self.check_expr(e.operand)
            return
        if isinstance(e, ast.CallExpr):
            if e.name not in INTRINSIC_ARITY:
                raise ElabError(
                    f"{self.pou.name}: {e.name} is not callable in an expression",
                    e.pos,
                )
            self._check_arity(e.name, e.args, e.pos)
            for a in e.args:
                self.check_expr(a)
            return
        raise ElabError(f"unsupported expression {e!r}")
