"""Scan-cycle execution engine for one controller.

A machine configuration holds only what a scan changes: the remaining
control items for the current cycle (`k`), the active variable environment,
the running program, the answers of the head's communication calls, and a
store shared by all programs on the controller.  The store is a tuple of
values indexed by location; `allocate` numbers the locations from 0 and
pairs each program with its environment, the machine's static layout,
which the system layer keeps beside the configuration (`load_programs`
queues the bodies from it).  Function-block instances live in the store,
so their outputs and locals persist across calls and cycles.

Execution advances in rule-sized steps: assignments, branch decisions,
loop unfoldings, block calls, and returns each count as one step.  Program
and block bodies are entered and left through one marker, `Frame(env,
prog)`, which sets the active environment and program: one before each
program body and one at the end of the scan, and one after each block body
that restores its caller.  Frame markers are folded into the neighbouring
step, so a stored configuration always has either an executable item at
the head or an empty `k`.

Communication primitives (connectRequest, disconnect, isConnected,
sendData, rcvData) cannot be resolved locally; evaluation suspends on them
and reports a `NeedsComm` outcome for the system layer to answer.  `step`
hands timing annotations to that layer as written, as their syntax nodes.
`k` holds only program text.  The answers live in `answers`: the results
of the communication calls the head statement has already made, in
evaluation order.  `step` evaluates the head again from the start and
takes the i-th answer at its i-th communication call, suspending at the
first call without one; whatever consumes the head clears them.  An
answer may be symbolic, like a store value: the store and the answers
hold all of a configuration's variables, which `config_vars` lists (store
values, then answers, each value's names in the sorted order of
`values.variables`) and `config_key` renames.

A branch condition (`IF`, `WHILE`) is a truth value or a boolean
expression, as an operand of `NOT`, `AND` and `OR` is; a number is not
one.

`eval_expr(e, names)` is the one evaluator of `st.ast` expressions, so
programs, properties, change laws and initializers give a text one
meaning.  Only names differ: the resolver `names` answers
`var(name)`, `field(base, name)` and `call(node, argvalues)`, or raises
`EvalError`.  A `KConfig` reads its environment and store and suspends on
communication intrinsics; `Literals` resolves nothing (initializers), and
properties (`explorer`) and change laws (`scenario`) extend it.

`step` must stay a pure function of `(table, cfg)`: the search memoizes
its outcomes, and whole runs of internal steps, per configuration (see
`timed.RuleCtx`).  A configuration caches its hash and its symbolic
variables, and is its own canonical key unless a renaming touches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .st import ast
from .st.builtins import COMM_INTRINSICS
from .st.elaborate import ElabError, PouTable
from .values import (
    EvalError,
    RCV_ERROR,
    copy_with,
    is_boolish,
    rat,
    rename,
    vadd,
    vand,
    variables,
    vcmp,
    vdiv,
    vmul,
    vneg,
    vnot,
    vor,
    vsub,
)

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
class Frame:
    """Makes `env` the active environment and `prog` the running program."""

    env: tuple  # sorted ((name, loc), ...)
    prog: str


# -- configuration ----------------------------------------------------------


def _env_tuple(d: dict) -> tuple:
    return tuple(sorted(d.items()))


@dataclass(frozen=True)
class KConfig:
    k: tuple = ()
    env: tuple = ()  # ((name, loc), ...), sorted
    store: tuple = ()  # values, indexed by location
    current_prog: str = ""  # program whose body is executing
    answers: tuple = ()  # results of the head's communication calls so far

    # Hashing walks `k` and the store, so it is done once per instance
    # (statement trees hash once themselves).  The caches live in the
    # instance dict: `copy_with` copies only the fields, so a copy starts
    # without them.  The hash is kept by hand, not by `cached_property`,
    # whose first read takes a lock on Python 3.10 and 3.11.
    def __hash__(self):
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = hash((self.k, self.env, self.store, self.current_prog, self.answers))
        return h

    @cached_property
    def _vars(self) -> tuple:
        return _config_vars(self)

    def lookup_loc(self, name: str) -> Optional[int]:
        for nm, loc in self.env:
            if nm == name:
                return loc
        return None

    def read(self, loc: int):
        store = self.store
        if 0 <= loc < len(store):
            return store[loc]
        raise EvalError(f"unallocated location {loc}")

    def write(self, loc: int, value) -> "KConfig":
        return self.write_many(((loc, value),))

    def write_many(self, pairs) -> "KConfig":
        store = list(self.store)
        for loc, value in pairs:
            if not 0 <= loc < len(store):
                raise EvalError(f"unallocated location {loc}")
            store[loc] = value
        return copy_with(self, store=tuple(store))

    # -- names for eval_expr --

    def var(self, name: str):
        loc = self.lookup_loc(name)
        if loc is not None:
            return self.read(loc)
        if name == "rcvError":
            return RCV_ERROR
        if name == "thisBlock":
            this = self.lookup_loc("__this")
            if this is None:
                raise EvalError("thisBlock outside a block body")
            return self.read(this)
        raise EvalError(f"unbound name {name}")

    def field(self, base: str, name: str):
        return self.read(_field_loc(self, base, name))

    def call(self, node: ast.CallExpr, argvalues: tuple):
        if node.name == "thisBlock":
            return self.var("thisBlock")
        if node.name in COMM_INTRINSICS:
            raise _Suspend(node, argvalues)
        raise EvalError(f"{node.name} is not callable")

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
    """Fold a declaration initializer, which may name nothing."""
    try:
        return eval_expr(e, Literals())
    except EvalError as exc:
        raise ElabError(f"initializer is not constant: {exc}") from exc


class _Builder:
    def __init__(self, table: PouTable):
        self.table = table
        self.store: list = []  # the value at each location, from 0

    def alloc(self, value) -> int:
        self.store.append(value)
        return len(self.store) - 1

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


def allocate(table: PouTable, program_names) -> tuple:
    """Lay out persistent storage for the named programs.

    Returns `(programs, cfg)`: `programs` pairs each program, in the order
    given (its scan order), with its environment, and `cfg` is an idle
    configuration (empty `k`) holding the store.
    """
    b = _Builder(table)
    programs = []
    for name in program_names:
        pou = table.get(name)
        if pou.kind != "program":
            raise ElabError(f"{name} is not a program")
        programs.append((name, _env_tuple(b.build_env(pou, ""))))
    return tuple(programs), KConfig(store=tuple(b.store))


def load_programs(table: PouTable, programs: tuple, cfg: KConfig) -> KConfig:
    """Queue the bodies of `programs` ((name, env), ...) for one scan cycle."""
    items: list = []
    for name, env in programs:
        items.append(Frame(env, name))
        items.extend(table.get(name).body)
    items.append(Frame((), ""))
    return normalize(copy_with(cfg, k=tuple(items)))


def normalize(cfg: KConfig) -> KConfig:
    """Consume the leading frame markers; the last one wins."""
    k = cfg.k
    i = 0
    while i < len(k) and isinstance(k[i], Frame):
        i += 1
    if not i:
        return cfg
    frame = k[i - 1]
    return copy_with(cfg, k=k[i:], env=frame.env, current_prog=frame.prog)


# -- expression evaluation --------------------------------------------------


class _Suspend(Exception):
    """Raised when evaluation reaches a communication intrinsic."""

    def __init__(self, node: ast.CallExpr, argvalues: tuple):
        super().__init__(node.name)
        self.node = node
        self.argvalues = argvalues


def _field_loc(cfg: KConfig, base: str, fld: str) -> int:
    loc = cfg.lookup_loc(base)
    if loc is None:
        raise EvalError(f"unbound name {base}")
    inst = cfg.read(loc)
    if not isinstance(inst, Instance):
        raise EvalError(f"{base} is not a block instance")
    return inst.loc(fld)


class _Answered:
    """Resolves like `cfg`, answering its i-th communication call with
    the i-th of `cfg.answers`; a call past the last answer suspends."""

    def __init__(self, cfg: KConfig):
        self.var = cfg.var
        self.field = cfg.field
        self._cfg = cfg
        self._next = 0

    def call(self, node: ast.CallExpr, argvalues: tuple):
        answers = self._cfg.answers
        if node.name in COMM_INTRINSICS and self._next < len(answers):
            self._next += 1
            return answers[self._next - 1]
        return self._cfg.call(node, argvalues)


class Literals:
    """The resolver of an expression that may name nothing."""

    def var(self, name: str):
        raise EvalError(f"cannot name {name} here")

    def field(self, base: str, name: str):
        raise EvalError(f"cannot name {base}.{name} here")

    def call(self, node: ast.CallExpr, argvalues: tuple):
        raise EvalError(f"cannot call {node.name} here")


_BIN = {
    "+": vadd,
    "-": vsub,
    "*": vmul,
    "/": vdiv,
    "AND": vand,
    "OR": vor,
}


def eval_expr(e: ast.Expr, names):
    """The value of `e`, with its names resolved by `names` (see above)."""
    if isinstance(e, ast.Lit):
        # A REAL literal keeps the Fraction it was written as; the engine
        # gets the number in the form `rat` gives.
        v = e.value
        return rat(v) if v.__class__ is Fraction else v
    if isinstance(e, ast.VarRef):
        return names.var(e.name)
    if isinstance(e, ast.FieldRef):
        return names.field(e.base, e.field)
    if isinstance(e, ast.UnOp):
        v = eval_expr(e.operand, names)
        return vnot(v) if e.op == "NOT" else vneg(v)
    if isinstance(e, ast.BinOp):
        lhs = eval_expr(e.lhs, names)
        rhs = eval_expr(e.rhs, names)
        fn = _BIN.get(e.op)
        if fn:
            return fn(lhs, rhs)
        return vcmp(e.op, lhs, rhs)
    if isinstance(e, ast.CallExpr):
        return names.call(e, tuple(eval_expr(a, names) for a in e.args))
    raise EvalError(f"cannot evaluate {e!r}")


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
class Failed:
    reason: str


def pop_head(cfg: KConfig) -> KConfig:
    if cfg.answers:
        return normalize(copy_with(cfg, k=cfg.k[1:], answers=()))
    return normalize(copy_with(cfg, k=cfg.k[1:]))


def _as_condition(v):
    """A branch condition: a truth value or a boolean expression, as
    `NOT`, `AND` and `OR` take."""
    if not is_boolish(v):
        raise EvalError(f"not a condition: {v!r}")
    return v


def step(table: PouTable, cfg: KConfig):
    """This machine's next execution outcome, without applying time: `Done`,
    `Internal`, `Branch`, `NeedsComm`, `Failed`, or the head's timing
    annotation (`ast.AssertTimeAnn`, `ast.DelayAnn`) as written."""
    head = cfg.head
    if head is None:
        return Done()
    if isinstance(head, (ast.AssertTimeAnn, ast.DelayAnn)):
        return head
    names = _Answered(cfg) if cfg.answers else cfg
    try:
        if isinstance(head, ast.Assign):
            value = eval_expr(head.expr, names)
            if isinstance(head.target, ast.VarRef):
                loc = cfg.lookup_loc(head.target.name)
                if loc is None:
                    raise EvalError(f"unbound name {head.target.name}")
            else:
                loc = _field_loc(cfg, head.target.base, head.target.field)
            return Internal("assign", pop_head(cfg.write(loc, value)))
        if isinstance(head, ast.IfStmt):
            cond = _as_condition(eval_expr(head.cond, names))
            rest = cfg.k[1:]
            then_cfg = normalize(copy_with(cfg, k=head.then_body + rest, answers=()))
            else_cfg = normalize(copy_with(cfg, k=head.else_body + rest, answers=()))
            if isinstance(cond, bool):
                if cond:
                    return Internal("if-true", then_cfg)
                return Internal("if-false", else_cfg)
            return Branch(cond, then_cfg, else_cfg)
        if isinstance(head, ast.WhileStmt):
            unfolded = ast.IfStmt(head.cond, head.body + (head,), (), head.pos)
            return Internal(
                "while", copy_with(cfg, k=(unfolded,) + cfg.k[1:])
            )
        if isinstance(head, ast.ReturnStmt):
            return Internal("return", _do_return(cfg))
        if isinstance(head, ast.CallStmt):
            if head.name in COMM_INTRINSICS:
                argvalues = tuple(eval_expr(a.expr, names) for a in head.args)
                return NeedsComm(head.name, argvalues, None)
            return Internal("call", _do_call(table, cfg, head, names))
    except _Suspend as s:
        return NeedsComm(s.node.name, s.argvalues, s.node)
    except EvalError as exc:
        return Failed(str(exc))
    return Failed(f"cannot execute {head!r}")


def _do_return(cfg: KConfig) -> KConfig:
    """Skip the rest of the body, up to the next frame marker."""
    k = cfg.k
    i = next((i for i, item in enumerate(k) if isinstance(item, Frame)), len(k))
    return normalize(copy_with(cfg, k=k[i:]))


def _do_call(table: PouTable, cfg: KConfig, call: ast.CallStmt, names) -> KConfig:
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
        value = eval_expr(arg.expr, names)
        if arg.name is None:
            if pos_index >= len(input_names):
                raise EvalError(f"too many arguments to {call.name}")
            target = input_names[pos_index]
            pos_index += 1
        else:
            target = arg.name
        writes.append((inst.loc(target), value))
    new_cfg = cfg.write_many(writes)
    k = pou.body + (Frame(cfg.env, cfg.current_prog),) + cfg.k[1:]
    return normalize(copy_with(new_cfg, k=k, env=inst.env, answers=()))


# -- resumption after a communication decision -------------------------------


def resume_comm(cfg: KConfig, site: Optional[ast.CallExpr], value) -> KConfig:
    """Feed an intrinsic's result back in: a call in statement position
    (`site` None) is done, any other call's result joins the answers."""
    if site is None:
        return pop_head(cfg)
    return copy_with(cfg, answers=cfg.answers + (value,))


# -- canonical form ---------------------------------------------------------


def config_key(cfg: KConfig, names: dict = None, pool: dict = None):
    """Hashable canonical form; `names` renames symbolic variables.

    A renaming that touches none of the configuration's variables changes
    nothing, and then the configuration is its own key: it holds the
    fields of the tuple below, in that order, and caches its hash.
    Renamed values are interned in `pool` (see `model.canonicalize`), or
    in a throwaway dict when it is None.
    """
    if not names or names.keys().isdisjoint(config_vars(cfg)):
        return cfg
    if pool is None:
        pool = {}
    return (
        cfg.k,
        cfg.env,
        tuple(rename(v, names, pool) for v in cfg.store),
        cfg.current_prog,
        tuple(rename(v, names, pool) for v in cfg.answers),
    )


def config_vars(cfg: KConfig) -> tuple:
    """Symbolic variable names, in store order then answer order."""
    return cfg._vars


def _config_vars(cfg: KConfig) -> tuple:
    found: dict = {}  # insertion-ordered set
    for v in cfg.store + cfg.answers:
        for n in variables(v):
            found.setdefault(n)
    return tuple(found)
