"""Scan-cycle execution engine for one controller.

A machine configuration holds the remaining control items for the current
cycle (`k`), the active variable environment, and a store shared by all
programs on the controller.  Function-block instances live in the store, so
their outputs and locals persist across calls and cycles.

Execution advances in rule-sized steps: assignments, branch decisions,
loop unfoldings, block calls, and returns each count as one step.  Pure
bookkeeping (entering and leaving program bodies, frame pops) is folded
into the neighbouring step, so a stored configuration always has either an
executable item at the head or an empty `k`.

Communication primitives (connectRequest, disconnect, isConnected,
sendData, rcvData) cannot be resolved locally; evaluation suspends on them
and reports a `NeedsComm` outcome for the system layer to answer.

`step` must stay a pure function of `(table, cfg)`: the search memoizes
its outcomes, and whole runs of internal steps, per configuration (see
`timed.RuleCtx`).  A configuration caches its hash and its symbolic
variables, and is its own canonical key unless a renaming touches it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .st import ast
from .st.builtins import INTRINSIC_CALLS
from .st.elaborate import ElabError, PouTable
from .values import (
    And,
    Cmp,
    EvalError,
    Not,
    Or,
    Poly,
    RCV_ERROR,
    RcvError,
    bool_rename,
    bool_variables,
    cmp_eq,
    vadd,
    vand,
    vcmp,
    vdiv,
    vmul,
    vneg,
    vnot,
    vor,
    vsub,
)

_BOOL_EXPRS = (Cmp, Not, And, Or)

COMM_INTRINSICS = INTRINSIC_CALLS - {"thisBlock"}


# -- store values -----------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """A function-block instance: its type, dotted path, and field env."""

    type_name: str
    path: str
    env: tuple  # sorted ((field, loc), ...)

    def loc(self, name: str) -> int:
        for fld, loc in self.env:
            if fld == name:
                return loc
        raise EvalError(f"{self.path} has no field {name}")


# -- control markers --------------------------------------------------------


@dataclass(frozen=True)
class PopFrame:
    env: tuple  # caller env, sorted ((name, loc), ...)


@dataclass(frozen=True)
class BeginProg:
    name: str


@dataclass(frozen=True)
class EndProg:
    name: str


# -- configuration ----------------------------------------------------------


def _env_tuple(d: dict) -> tuple:
    return tuple(sorted(d.items()))


@dataclass(frozen=True)
class KConfig:
    k: tuple = ()
    env: tuple = ()  # ((name, loc), ...), sorted
    store: tuple = ()  # ((loc, value), ...), sorted by loc
    prog_envs: tuple = ()  # ((prog name, env tuple), ...)
    programs: tuple = ()  # execution order for each cycle
    current_prog: str = ""  # program whose body is executing

    # Hashing walks every statement tree in `k`, so it is done once per
    # instance.  The caches live in the instance dict: `replace` builds a
    # new instance, which starts without them.
    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(
            (self.k, self.env, self.store, self.prog_envs, self.programs, self.current_prog)
        )

    @cached_property
    def _vars(self) -> tuple:
        return _config_vars(self)

    def lookup_loc(self, name: str) -> Optional[int]:
        for nm, loc in self.env:
            if nm == name:
                return loc
        return None

    def read(self, loc: int):
        for lc, val in self.store:
            if lc == loc:
                return val
        raise EvalError(f"unallocated location {loc}")

    def write(self, loc: int, value) -> "KConfig":
        store = tuple((lc, value if lc == loc else val) for lc, val in self.store)
        return replace(self, store=store)

    def write_many(self, pairs) -> "KConfig":
        updates = dict(pairs)
        store = tuple((lc, updates.pop(lc, val)) for lc, val in self.store)
        if updates:
            raise EvalError(f"unallocated locations {sorted(updates)}")
        return replace(self, store=store)

    def prog_env(self, name: str) -> tuple:
        for nm, env in self.prog_envs:
            if nm == name:
                return env
        raise EvalError(f"no environment for program {name}")

    @property
    def head(self):
        return self.k[0] if self.k else None

    def is_cycle_complete(self) -> bool:
        return not self.k


# -- construction -----------------------------------------------------------


def _default_value(type_name: str):
    if type_name == "BOOL":
        return False
    if type_name == "STRING":
        return ""
    return 0


def const_eval(e: ast.Expr):
    """Fold a declaration initializer; only literal arithmetic is allowed."""
    if isinstance(e, ast.Lit):
        return e.value
    if isinstance(e, ast.UnOp) and e.op == "-":
        return vneg(const_eval(e.operand))
    if isinstance(e, ast.BinOp):
        lhs, rhs = const_eval(e.lhs), const_eval(e.rhs)
        fn = {"+": vadd, "-": vsub, "*": vmul, "/": vdiv}.get(e.op)
        if fn:
            return fn(lhs, rhs)
    raise ElabError(f"initializer is not constant: {e!r}")


class _Builder:
    def __init__(self, table: PouTable):
        self.table = table
        self.next_loc = 0
        self.cells: list = []  # (loc, value)

    def alloc(self, value) -> int:
        loc = self.next_loc
        self.next_loc += 1
        self.cells.append((loc, value))
        return loc

    def build_env(self, pou: ast.Pou, path: str) -> dict:
        env = {}
        for decl in pou.inputs + pou.outputs + pou.locals:
            child_path = f"{path}.{decl.name}" if path else decl.name
            if decl.type_name in self.table.blocks:
                env[decl.name] = self.alloc(self.instance(decl.type_name, child_path))
            elif decl.init is not None:
                env[decl.name] = self.alloc(const_eval(decl.init))
            else:
                env[decl.name] = self.alloc(_default_value(decl.type_name))
        return env

    def instance(self, type_name: str, path: str) -> Instance:
        pou = self.table.blocks[type_name]
        env = self.build_env(pou, path)
        env["__this"] = self.alloc(path)
        return Instance(type_name, path, _env_tuple(env))


def idle_config(table: PouTable, program_names) -> KConfig:
    """Allocate persistent storage for the named programs; k starts empty."""
    b = _Builder(table)
    prog_envs = []
    for name in program_names:
        pou = table.get(name)
        if pou.kind != "program":
            raise ElabError(f"{name} is not a program")
        prog_envs.append((name, _env_tuple(b.build_env(pou, ""))))
    return KConfig(
        k=(),
        env=(),
        store=tuple(b.cells),
        prog_envs=tuple(prog_envs),
        programs=tuple(program_names),
    )


def load_programs(table: PouTable, cfg: KConfig) -> KConfig:
    """Queue every program body for one scan cycle."""
    items: list = []
    for name in cfg.programs:
        pou = table.get(name)
        items.append(BeginProg(name))
        items.extend(pou.body)
        items.append(EndProg(name))
    return normalize(replace(cfg, k=tuple(items)))


def normalize(cfg: KConfig) -> KConfig:
    """Consume bookkeeping markers until an executable head (or empty k)."""
    k, env, prog = cfg.k, cfg.env, cfg.current_prog
    changed = False
    while k:
        item = k[0]
        if isinstance(item, BeginProg):
            env = cfg.prog_env(item.name)
            prog = item.name
        elif isinstance(item, PopFrame):
            env = item.env
        elif isinstance(item, EndProg):
            prog = ""
        else:
            break
        k = k[1:]
        changed = True
    if not changed:
        return cfg
    return replace(cfg, k=k, env=env, current_prog=prog)


# -- expression evaluation --------------------------------------------------


class _Suspend(Exception):
    """Raised when evaluation reaches a communication intrinsic."""

    def __init__(self, node: ast.CallExpr, argvalues: tuple):
        super().__init__(node.name)
        self.node = node
        self.argvalues = argvalues


def _read_var(cfg: KConfig, name: str):
    loc = cfg.lookup_loc(name)
    if loc is not None:
        return cfg.read(loc)
    if name == "rcvError":
        return RCV_ERROR
    if name == "thisBlock":
        this = cfg.lookup_loc("__this")
        if this is None:
            raise EvalError("thisBlock outside a block body")
        return cfg.read(this)
    raise EvalError(f"unbound name {name}")


def _field_loc(cfg: KConfig, base: str, fld: str) -> int:
    loc = cfg.lookup_loc(base)
    if loc is None:
        raise EvalError(f"unbound name {base}")
    inst = cfg.read(loc)
    if not isinstance(inst, Instance):
        raise EvalError(f"{base} is not a block instance")
    return inst.loc(fld)


_BIN = {
    "+": vadd,
    "-": vsub,
    "*": vmul,
    "/": vdiv,
    "AND": vand,
    "OR": vor,
}


def eval_expr(e: ast.Expr, cfg: KConfig):
    if isinstance(e, ast.Lit):
        return e.value
    if isinstance(e, ast.VarRef):
        return _read_var(cfg, e.name)
    if isinstance(e, ast.FieldRef):
        return cfg.read(_field_loc(cfg, e.base, e.field))
    if isinstance(e, ast.UnOp):
        v = eval_expr(e.operand, cfg)
        return vnot(v) if e.op == "NOT" else vneg(v)
    if isinstance(e, ast.BinOp):
        lhs = eval_expr(e.lhs, cfg)
        rhs = eval_expr(e.rhs, cfg)
        fn = _BIN.get(e.op)
        if fn:
            return fn(lhs, rhs)
        return vcmp(e.op, lhs, rhs)
    if isinstance(e, ast.CallExpr):
        argvalues = tuple(eval_expr(a, cfg) for a in e.args)
        if e.name == "thisBlock":
            return _read_var(cfg, "thisBlock")
        if e.name in COMM_INTRINSICS:
            raise _Suspend(e, argvalues)
        raise EvalError(f"{e.name} is not callable")
    raise EvalError(f"cannot evaluate {e!r}")


def replace_first(e: ast.Expr, target: ast.Expr, repl: ast.Expr):
    """Replace the first occurrence of `target` in evaluation order.

    Traversal mirrors eval_expr: operands left to right, call arguments
    before the call itself.  Returns (new_expr, found).
    """
    if isinstance(e, ast.CallExpr):
        args = list(e.args)
        for i, a in enumerate(args):
            new_a, found = replace_first(a, target, repl)
            if found:
                args[i] = new_a
                return replace(e, args=tuple(args)), True
        if e == target:
            return repl, True
        return e, False
    if e == target:
        return repl, True
    if isinstance(e, ast.UnOp):
        new_op, found = replace_first(e.operand, target, repl)
        return (replace(e, operand=new_op), True) if found else (e, False)
    if isinstance(e, ast.BinOp):
        new_lhs, found = replace_first(e.lhs, target, repl)
        if found:
            return replace(e, lhs=new_lhs), True
        new_rhs, found = replace_first(e.rhs, target, repl)
        if found:
            return replace(e, rhs=new_rhs), True
        return e, False
    return e, False


# -- stepping ---------------------------------------------------------------


@dataclass(frozen=True)
class Done:
    pass


@dataclass(frozen=True)
class Internal:
    label: str
    cfg: KConfig


@dataclass(frozen=True)
class Branch:
    """Branch on a symbolic boolean: take `cond` or its negation."""

    cond: object  # values.BoolExpr
    then_cfg: KConfig
    else_cfg: KConfig


@dataclass(frozen=True)
class NeedsComm:
    """Evaluation hit a communication intrinsic; the system layer decides."""

    name: str
    argvalues: tuple
    site: Optional[ast.CallExpr]  # None when the head statement is the call


@dataclass(frozen=True)
class AssertTime:
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class DelaySet:
    a: str
    b: str
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class Failed:
    reason: str


def pop_head(cfg: KConfig) -> KConfig:
    return normalize(replace(cfg, k=cfg.k[1:]))


def _as_condition(v):
    """Interpret a value as a branch condition; 0/1 encodes symbolic BOOL."""
    if isinstance(v, bool):
        return v
    if isinstance(v, Poly):
        c = cmp_eq(v, Poly.const(1))
        return c
    if isinstance(v, (int, Fraction)):
        return v != 0
    if isinstance(v, (str, RcvError, Instance)):
        raise EvalError(f"not a condition: {v!r}")
    return v  # already a boolean expression


def step(table: PouTable, cfg: KConfig):
    """Compute this machine's next execution outcome without applying time."""
    head = cfg.head
    if head is None:
        return Done()
    if isinstance(head, ast.AssertTimeAnn):
        return AssertTime(head.lo, head.hi)
    if isinstance(head, ast.DelayAnn):
        return DelaySet(head.a, head.b, head.lo, head.hi)
    try:
        if isinstance(head, ast.Assign):
            value = eval_expr(head.expr, cfg)
            if isinstance(head.target, ast.VarRef):
                loc = cfg.lookup_loc(head.target.name)
                if loc is None:
                    raise EvalError(f"unbound name {head.target.name}")
            else:
                loc = _field_loc(cfg, head.target.base, head.target.field)
            return Internal("assign", pop_head(cfg.write(loc, value)))
        if isinstance(head, ast.IfStmt):
            cond = _as_condition(eval_expr(head.cond, cfg))
            then_cfg = normalize(replace(cfg, k=head.then_body + cfg.k[1:]))
            else_cfg = normalize(replace(cfg, k=head.else_body + cfg.k[1:]))
            if isinstance(cond, bool):
                if cond:
                    return Internal("if-true", then_cfg)
                return Internal("if-false", else_cfg)
            return Branch(cond, then_cfg, else_cfg)
        if isinstance(head, ast.WhileStmt):
            unfolded = ast.IfStmt(head.cond, head.body + (head,), (), head.pos)
            return Internal(
                "while", replace(cfg, k=(unfolded,) + cfg.k[1:])
            )
        if isinstance(head, ast.ReturnStmt):
            return Internal("return", _do_return(cfg))
        if isinstance(head, ast.CallStmt):
            if head.name in COMM_INTRINSICS:
                argvalues = tuple(eval_expr(a.expr, cfg) for a in head.args)
                return NeedsComm(head.name, argvalues, None)
            return Internal("call", _do_call(table, cfg, head))
    except _Suspend as s:
        return NeedsComm(s.node.name, s.argvalues, s.node)
    except EvalError as exc:
        return Failed(str(exc))
    return Failed(f"cannot execute {head!r}")


def _do_return(cfg: KConfig) -> KConfig:
    for i, item in enumerate(cfg.k):
        if isinstance(item, PopFrame):
            return normalize(replace(cfg, k=cfg.k[i + 1 :], env=item.env))
        if isinstance(item, EndProg):
            return normalize(replace(cfg, k=cfg.k[i + 1 :], current_prog=""))
    return normalize(replace(cfg, k=(), current_prog=""))


def _do_call(table: PouTable, cfg: KConfig, call: ast.CallStmt) -> KConfig:
    loc = cfg.lookup_loc(call.name)
    if loc is None:
        raise EvalError(f"unbound name {call.name}")
    inst = cfg.read(loc)
    if not isinstance(inst, Instance):
        raise EvalError(f"{call.name} is not a block instance")
    pou = table.blocks[inst.type_name]
    input_names = [d.name for d in pou.inputs]
    writes = []
    pos_index = 0
    for arg in call.args:
        value = eval_expr(arg.expr, cfg)
        if arg.name is None:
            if pos_index >= len(input_names):
                raise EvalError(f"too many arguments to {call.name}")
            target = input_names[pos_index]
            pos_index += 1
        else:
            target = arg.name
        writes.append((inst.loc(target), value))
    new_cfg = cfg.write_many(writes)
    k = pou.body + (PopFrame(cfg.env),) + cfg.k[1:]
    return normalize(replace(new_cfg, k=k, env=inst.env))


# -- resumption after a communication decision -------------------------------


def resume_comm(cfg: KConfig, site: Optional[ast.CallExpr], value) -> KConfig:
    """Feed an intrinsic's result back in and consume or rewrite the head."""
    head = cfg.head
    if site is None:
        return pop_head(cfg)
    lit = ast.Lit(value)
    if isinstance(head, ast.Assign):
        new_expr, found = replace_first(head.expr, site, lit)
        new_head = replace(head, expr=new_expr)
    elif isinstance(head, ast.IfStmt):
        new_expr, found = replace_first(head.cond, site, lit)
        new_head = replace(head, cond=new_expr)
    elif isinstance(head, ast.CallStmt):
        found = False
        args = list(head.args)
        for i, a in enumerate(args):
            new_e, found = replace_first(a.expr, site, lit)
            if found:
                args[i] = replace(a, expr=new_e)
                break
        new_head = replace(head, args=tuple(args))
    else:
        raise EvalError(f"cannot resume into {head!r}")
    if not found:
        raise EvalError("suspended call site vanished")
    return replace(cfg, k=(new_head,) + cfg.k[1:])


# -- canonical form ---------------------------------------------------------


def _canon_value(v, rename):
    if isinstance(v, Poly):
        return ("poly", v.rename(rename) if rename else v)
    if isinstance(v, Instance):
        return ("inst", v.type_name, v.path, v.env)
    if isinstance(v, _BOOL_EXPRS):
        return ("bexp", bool_rename(v, rename) if rename else v)
    return ("lit", v)


def _canon_k_item(item, rename):
    if isinstance(item, (BeginProg, EndProg, PopFrame)):
        return item
    return _canon_stmt(item, rename)


def _canon_stmt(s, rename):
    # Substituted literals may hold symbolic values inside statement trees.
    if not rename:
        return s
    if isinstance(s, ast.Lit) and isinstance(s.value, Poly):
        return replace(s, value=s.value.rename(rename))
    if isinstance(s, ast.Assign):
        return replace(s, expr=_canon_stmt(s.expr, rename))
    if isinstance(s, ast.IfStmt):
        return replace(
            s,
            cond=_canon_stmt(s.cond, rename),
            then_body=tuple(_canon_stmt(t, rename) for t in s.then_body),
            else_body=tuple(_canon_stmt(t, rename) for t in s.else_body),
        )
    if isinstance(s, ast.WhileStmt):
        return replace(
            s,
            cond=_canon_stmt(s.cond, rename),
            body=tuple(_canon_stmt(t, rename) for t in s.body),
        )
    if isinstance(s, ast.BinOp):
        return replace(
            s, lhs=_canon_stmt(s.lhs, rename), rhs=_canon_stmt(s.rhs, rename)
        )
    if isinstance(s, ast.UnOp):
        return replace(s, operand=_canon_stmt(s.operand, rename))
    if isinstance(s, ast.CallExpr):
        return replace(s, args=tuple(_canon_stmt(a, rename) for a in s.args))
    if isinstance(s, ast.CallStmt):
        return replace(
            s,
            args=tuple(replace(a, expr=_canon_stmt(a.expr, rename)) for a in s.args),
        )
    return s


def config_key(cfg: KConfig, rename: dict = None):
    """Hashable canonical form; `rename` maps symbolic variable names.

    A rename that touches none of the configuration's variables changes
    nothing, and then the configuration is its own key: it compares like
    the tuple below (its program environments are fixed per machine) and
    caches its hash.
    """
    if not rename or rename.keys().isdisjoint(config_vars(cfg)):
        return cfg
    return (
        tuple(_canon_k_item(i, rename) for i in cfg.k),
        cfg.env,
        tuple((loc, _canon_value(v, rename)) for loc, v in cfg.store),
        cfg.current_prog,
    )


def config_vars(cfg: KConfig) -> tuple:
    """Symbolic variable names, in store order then k order."""
    return cfg._vars


def _config_vars(cfg: KConfig) -> tuple:
    out = []
    seen = set()

    def add_all(names):
        for n in names:
            if n not in seen:
                seen.add(n)
                out.append(n)

    for _, v in cfg.store:
        if isinstance(v, Poly):
            add_all(sorted(v.variables()))
        elif isinstance(v, _BOOL_EXPRS):
            add_all(sorted(bool_variables(v)))
    for item in cfg.k:
        for node in _walk_lits(item):
            if isinstance(node.value, Poly):
                add_all(sorted(node.value.variables()))
    return tuple(out)


def _walk_lits(item):
    if isinstance(item, ast.Lit):
        yield item
    elif isinstance(item, ast.Assign):
        yield from _walk_lits(item.expr)
    elif isinstance(item, ast.IfStmt):
        yield from _walk_lits(item.cond)
        for t in item.then_body + item.else_body:
            yield from _walk_lits(t)
    elif isinstance(item, ast.WhileStmt):
        yield from _walk_lits(item.cond)
        for t in item.body:
            yield from _walk_lits(t)
    elif isinstance(item, ast.BinOp):
        yield from _walk_lits(item.lhs)
        yield from _walk_lits(item.rhs)
    elif isinstance(item, ast.UnOp):
        yield from _walk_lits(item.operand)
    elif isinstance(item, ast.CallExpr):
        for a in item.args:
            yield from _walk_lits(a)
    elif isinstance(item, ast.CallStmt):
        for a in item.args:
            yield from _walk_lits(a.expr)
