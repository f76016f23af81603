"""Scenario files: JSON description of a machine network plus analysis.

A scenario names the controller programs (from .st sources), the physical
state each machine owns with its flow laws, per-cycle input feeds, the
connections between programs, and the analysis settings.  Loading one
yields ready-to-run initial states.  The file's run settings form one
`Options` record, which `Scenario.initial_state(**overrides)` overrides
per run, so the same file serves comparisons.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .kmachine import Literals, allocate, eval_expr
from .model import (
    FLOW_TIME,
    Conn,
    InputSpec,
    ModelError,
    Options,
    PLCMachine,
    SystemState,
    conn_pair,
    validate_flow,
)
from .solver import SmtCheck
from .st import (
    CallStmt,
    DelayAnn,
    ElabError,
    IfStmt,
    LexError,
    Lit,
    ParseError,
    PouTable,
    WhileStmt,
    parse_expression,
    parse_file,
)
from .timed import RuleCtx, compile_start, start_scans
from .values import EvalError, Poly, as_poly, copy_with, is_numeric, rat


class ScenarioError(Exception):
    pass


_ANALYSIS_KEYS = {
    "bound",
    "mode",
    "por",
    "clockSep",
    "property",
    "maxStates",
}
_MACHINE_KEYS = {"id", "programs", "cycleTime", "state", "flow", "inputs", "preload"}
_TOP_KEYS = {
    "machines",
    "connections",
    "analysis",
    "sources",
    "rcvNoOnPending",
    "reliableConnect",
}


# The file's key for each `Options` field: in 'analysis', or top-level.
_OPTION_KEYS = {"mode": "analysis.mode", "por": "analysis.por", "clock_sep": "analysis.clockSep",
                "rcv_no_on_pending": "rcvNoOnPending", "reliable_connect": "reliableConnect"}


@dataclass
class Analysis:
    bound: object = 100  # rational
    property: str = None
    max_states: int = None


@dataclass
class Scenario:
    table: PouTable
    machines: tuple  # PLCMachine templates, idle: no scan has begun
    conns: tuple
    analysis: Analysis
    options: Options = Options()
    preload: tuple = ()  # ids of the machines whose first scan has begun

    def initial_state(self, **overrides) -> SystemState:
        """The initial state under the file's options, with any `Options`
        field overridden by name; an override of None keeps the file's value."""
        unknown = set(overrides) - set(_OPTION_KEYS)
        if unknown:
            raise ScenarioError(f"unknown option overrides: {sorted(unknown)}")
        opts = copy_with(self.options, **{
            k: _option(k, v, f"override {k}") for k, v in overrides.items() if v is not None
        })
        if opts.mode == "concrete":
            _reject_free_inputs(self.machines)
        s = SystemState(
            machines=self.machines,
            conns=self.conns,
            clock=0,
            options=opts,
        )
        return start_scans(s, self.preload, {})

    def context(self) -> RuleCtx:
        return RuleCtx(
            self.table,
            SmtCheck(),
            comm_ample=_links_stable(self.table, self.conns),
        )


# -- link stability ----------------------------------------------------------

_BUILTIN_BLOCKS = ("CONNECT", "USEND", "URCV")


def _links_stable(table: PouTable, conns: tuple) -> bool:
    """May the reduction treat link state as write-once?

    True only when every link has a positive minimum delay and no loaded
    program can drop a link or retune its delays: no delay annotations,
    no direct disconnect calls, and every CONNECT invocation enables the
    link with a literal TRUE.
    """
    if any(c.delay_lo <= 0 for c in conns):
        return False
    for name, pou in table.pous.items():
        if name in _BUILTIN_BLOCKS:
            continue
        types = {d.name: d.type_name for d in pou.inputs + pou.outputs + pou.locals}
        if not _stmts_keep_links(pou.body, types):
            return False
    return True


def _stmts_keep_links(body, types) -> bool:
    for st in body:
        if isinstance(st, DelayAnn):
            return False
        if isinstance(st, IfStmt):
            if not _stmts_keep_links(st.then_body, types):
                return False
            if not _stmts_keep_links(st.else_body, types):
                return False
        elif isinstance(st, WhileStmt):
            if not _stmts_keep_links(st.body, types):
                return False
        elif isinstance(st, CallStmt):
            if st.name == "disconnect":
                return False
            if types.get(st.name) == "CONNECT":
                en = None
                for i, a in enumerate(st.args):
                    if a.name == "ENC" or (a.name is None and i == 0):
                        en = a.expr
                if not (isinstance(en, Lit) and en.value is True):
                    return False
    return True


# -- value parsing -----------------------------------------------------------


def _num(v, where: str):
    """A truth value as itself; a number in the form `values.rat` gives."""
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        # json.loads accepts NaN and Infinity, which no Fraction holds
        if not math.isfinite(v):
            raise ScenarioError(f"{where}: not a finite number: {v!r}")
        return rat(v)
    if isinstance(v, str):
        try:
            return rat(v)
        except ValueError:
            raise ScenarioError(f"{where}: not a number: {v!r}")
    raise ScenarioError(f"{where}: unsupported value {v!r}")


def _number(v, where: str):
    """A quantity; a JSON boolean is a truth value, not a number."""
    if isinstance(v, bool):
        raise ScenarioError(f"{where} must be a number, got {v!r}")
    return _num(v, where)


def _state_value(v, types, where: str):
    """A plant or input value from the file.  It must have the type every
    program declares for it (`types`): a JSON boolean for BOOL, a string
    for STRING, a number otherwise.  A STRING keeps its text; any other
    value is read as a number or a truth value."""
    for type_name in sorted(types):
        if type_name == "BOOL":
            ok = isinstance(v, bool)
        elif type_name == "STRING":
            ok = isinstance(v, str)
        else:
            ok = isinstance(v, (int, float)) and not isinstance(v, bool)
        if not ok:
            raise ScenarioError(f"{where}: {v!r} does not match its declared type {type_name}")
    if isinstance(v, str) and "STRING" in types:
        return v
    return _num(v, where)


def _object(doc: dict, key: str, mid: str) -> dict:
    v = doc.get(key) or {}
    if not isinstance(v, dict):
        raise ScenarioError(f"machine {mid!r}: {key!r} must be an object")
    return v


class _LawNames(Literals):
    """In a change law every name is a variable: a state name or t."""

    def var(self, name: str):
        return Poly.var(name)


def _flow_poly(text: str, where: str) -> Poly:
    try:
        law = eval_expr(parse_expression(text), _LawNames())
    except (LexError, ParseError, EvalError) as e:
        raise ScenarioError(f"{where}: {e}")
    if not is_numeric(law):
        raise ScenarioError(f"{where}: flow laws are polynomial expressions over "
                            f"state names and t")
    return as_poly(law)


# -- machine construction ----------------------------------------------------


def _input_specs(table: PouTable, doc: dict, programs: tuple, mid: str) -> tuple:
    """The machine's input feeds.  Each value must have the type its
    program declares for the variable, by the rule of plant values
    (`_state_value`); an `ANY` variable reads a number or a truth value."""
    out = []
    for var, spec in doc.items():
        where = f"machine {mid!r} input {var!r}"
        if not isinstance(spec, dict):
            raise ScenarioError(f"{where}: expected an object")
        prog = spec.get("program")
        if prog is None:
            if len(programs) != 1:
                raise ScenarioError(f"{where}: 'program' required when the "
                                    f"machine runs several programs")
            prog = programs[0]
        elif prog not in programs:
            raise ScenarioError(f"{where}: {prog!r} not on this machine")
        pou = table.get(prog)
        decl = next((d for d in pou.inputs + pou.outputs + pou.locals if d.name == var), None)
        if decl is None:
            raise ScenarioError(f"machine {mid!r}: program {prog!r} has no variable {var!r}")
        types = () if decl.type_name == "ANY" else (decl.type_name,)
        kind = spec.get("kind")
        if kind not in {"script", "enumerate", "free"}:
            raise ScenarioError(f"{where}: kind must be script, enumerate or free")
        values = spec.get("values", [])
        if not isinstance(values, list):
            raise ScenarioError(f"{where}: 'values' must be a list")
        values = tuple(_state_value(v, types, where) for v in values)
        lo = hi = None
        if kind == "free":
            if "STRING" in types:
                raise ScenarioError(f"{where}: a STRING input cannot be free")
            if "values" in spec:
                if not values:
                    raise ScenarioError(f"{where}: empty domain")
            elif "BOOL" in types:
                raise ScenarioError(f"{where}: a free BOOL input needs a values "
                                    f"list, not min/max")
            else:
                if "min" not in spec or "max" not in spec:
                    raise ScenarioError(f"{where}: free inputs need min/max "
                                        f"or a finite values list")
                lo = _number(spec["min"], f"{where} min")
                hi = _number(spec["max"], f"{where} max")
                if lo > hi:
                    raise ScenarioError(f"{where}: min {lo} is above max {hi}")
        elif kind in {"script", "enumerate"} and not values:
            raise ScenarioError(f"{where}: 'values' must be non-empty")
        out.append(InputSpec(prog, var, kind, values, lo, hi))
    return tuple(sorted(out, key=lambda i: (i.prog, i.var)))


def _build_machine(table: PouTable, doc: dict) -> PLCMachine:
    if not isinstance(doc, dict):
        raise ScenarioError(f"'machines' entries must be objects, got {doc!r}")
    extra = set(doc) - _MACHINE_KEYS
    if extra:
        raise ScenarioError(f"machine entry: unknown keys {sorted(extra)}")
    mid = doc.get("id")
    if not mid or not isinstance(mid, str):
        raise ScenarioError("machine entry: 'id' (string) is required")
    programs = doc.get("programs")
    if not (isinstance(programs, list) and programs and all(isinstance(p, str) for p in programs)):
        raise ScenarioError(f"machine {mid!r}: 'programs' must be a non-empty list "
                            f"of program names, got {programs!r}")
    programs = tuple(programs)
    for p in programs:
        try:
            pou = table.get(p)
        except ElabError:
            raise ScenarioError(f"machine {mid!r}: unknown program {p!r}")
        if pou.kind != "program":
            raise ScenarioError(f"machine {mid!r}: {p!r} is not a program")
    cycle = doc.get("cycleTime")
    if cycle is None:
        raise ScenarioError(f"machine {mid!r}: 'cycleTime' is required")
    cycle = _number(cycle, f"machine {mid!r} cycleTime")
    if cycle <= 0:
        raise ScenarioError(f"machine {mid!r}: cycleTime must be positive")

    state_doc = _object(doc, "state", mid)
    declared = {}  # name -> the types the programs' inputs and outputs give it
    for p in programs:
        for d in table.get(p).inputs + table.get(p).outputs:
            declared.setdefault(d.name, set()).add(d.type_name)
    state = {k: _state_value(v, declared.get(k, ()), f"machine {mid!r} state {k!r}")
             for k, v in state_doc.items()}
    # every actuated output is part of the physical state it drives, and
    # starts at the program's value unless the file gives one
    try:
        layout, cfg = allocate(table, programs)
    except ElabError as e:
        raise ScenarioError(f"machine {mid!r}: {e}") from e
    non_numeric = {k for k, v in state.items() if isinstance(v, (bool, str))}
    for p, env in layout:
        env = dict(env)
        for d in table.get(p).outputs:
            state.setdefault(d.name, cfg.read(env[d.name]))
            if d.type_name in ("BOOL", "STRING"):
                non_numeric.add(d.name)
    flows = {}
    for name, law in _object(doc, "flow", mid).items():
        if name not in state:
            raise ScenarioError(f"machine {mid!r}: flow for unknown state {name!r}")
        where = f"machine {mid!r} flow {name!r}"
        flows[name] = _flow_poly(str(law), where)
        try:
            validate_flow(name, flows[name])
        except ModelError as e:
            raise ScenarioError(f"{where}: {e}")
        # Only state names are substituted when time passes; any other name
        # would stay in the state as a symbol no fresh-variable count covers.
        law_vars = set(flows[name].variables())
        stray = law_vars - set(state) - {FLOW_TIME}
        if stray:
            raise ScenarioError(
                f"machine {mid!r}: flow for {name!r} names {sorted(stray)}, "
                f"which are neither state variables nor {FLOW_TIME!r}"
            )
        # A law is a polynomial: a truth value or a text in it has no meaning.
        bad = sorted(law_vars & non_numeric)
        if bad:
            raise ScenarioError(
                f"{where}: law {law!r} names {bad[0]!r}, which is not a "
                f"numeric state variable"
            )

    specs = _input_specs(table, _object(doc, "inputs", mid), programs, mid)

    preload = _flag(doc.get("preload", False), f"machine {mid!r} preload")
    if preload and any(spec.kind != "script" for spec in specs):
        raise ScenarioError(f"machine {mid!r}: preload only works with script inputs")
    state = tuple(sorted(state.items()))
    return PLCMachine(
        mid=mid,
        cfg=cfg,
        timer=0,
        env_timer=0,
        state=state,
        flow=tuple(sorted(flows.items())),
        cycle_time=cycle,
        programs=layout,
        plan=compile_start(table, layout, state, specs),
        inputs=specs,
    )


# -- scenario assembly -------------------------------------------------------


def scenario_from_dict(doc: dict, table: PouTable) -> Scenario:
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise ScenarioError(f"unknown top-level keys {sorted(extra)}")
    machines_doc = doc.get("machines")
    if not isinstance(machines_doc, list) or not machines_doc:
        raise ScenarioError("'machines' must be a non-empty list")
    machines = [_build_machine(table, md) for md in machines_doc]
    ids = [m.mid for m in machines]
    if len(set(ids)) != len(ids):
        raise ScenarioError("duplicate machine ids")
    prog_owner = {}
    for m in machines:
        for p, _ in m.programs:
            if p in prog_owner:
                raise ScenarioError(f"program {p!r} assigned to two machines")
            prog_owner[p] = m.mid

    conns = []
    conns_doc = doc.get("connections") or []
    if not isinstance(conns_doc, list):
        raise ScenarioError("'connections' must be a list")
    for cd in conns_doc:
        if not isinstance(cd, dict):
            raise ScenarioError(f"'connections' entries must be objects, got {cd!r}")
        extra = set(cd) - {"a", "b", "delay"}
        if extra:
            raise ScenarioError(f"connection entry: unknown keys {sorted(extra)}")
        a, b = cd.get("a"), cd.get("b")
        if not (isinstance(a, str) and isinstance(b, str) and a and b and a != b):
            raise ScenarioError("connection ends 'a' and 'b' must be distinct program names")
        for end in (a, b):
            if end not in prog_owner:
                raise ScenarioError(f"connection end {end!r} is not a loaded program")
        delay = cd.get("delay", [10, 20])
        if not (isinstance(delay, (list, tuple)) and len(delay) == 2):
            raise ScenarioError("connection delay must be [min, max]")
        lo = _number(delay[0], "connection delay")
        hi = _number(delay[1], "connection delay")
        if lo < 0 or hi < lo:
            raise ScenarioError("connection delay needs 0 <= min <= max")
        conns.append(Conn(pair=conn_pair(a, b), delay_lo=lo, delay_hi=hi))
    pairs = [c.pair for c in conns]
    if len(set(pairs)) != len(pairs):
        raise ScenarioError("duplicate connection")

    scen = Scenario(
        table=table,
        machines=tuple(sorted(machines, key=lambda m: m.mid)),
        conns=tuple(sorted(conns, key=lambda c: c.pair)),
        analysis=_build_analysis(doc.get("analysis") or {}),
        options=_build_options(doc),
        preload=tuple(sorted(md["id"] for md in machines_doc if md.get("preload"))),
    )
    if not scen.options.symbolic:
        _reject_free_inputs(scen.machines)
    return scen


def _build_analysis(doc: dict) -> Analysis:
    if not isinstance(doc, dict):
        raise ScenarioError(f"'analysis' must be an object, got {doc!r}")
    extra = set(doc) - _ANALYSIS_KEYS
    if extra:
        raise ScenarioError(f"analysis: unknown keys {sorted(extra)}")
    prop = doc.get("property")
    if prop is not None and not isinstance(prop, str):
        raise ScenarioError(f"analysis.property must be a string, got {prop!r}")
    a = Analysis(
        bound=_number(doc.get("bound", 100), "analysis.bound"),
        property=prop,
        max_states=doc.get("maxStates"),
    )
    if a.bound < 0:
        raise ScenarioError("analysis.bound must be >= 0")
    if a.max_states is not None:
        _count(a.max_states, "analysis.maxStates")
    return a


def _build_options(doc: dict) -> Options:
    """The file's run settings; an absent key takes `Options`' default."""
    given = {}
    for name, path in _OPTION_KEYS.items():
        section, _, key = path.rpartition(".")
        src = doc.get(section) or {} if section else doc
        if key in src:
            given[name] = _option(name, src[key], path)
    return Options(**given)


def _option(name: str, v, where: str):
    return _mode(v, where) if name == "mode" else _flag(v, where)


def _mode(v, where: str) -> str:
    if v not in ("concrete", "symbolic"):
        raise ScenarioError(f"{where} must be 'concrete' or 'symbolic', got {v!r}")
    return v


def _flag(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ScenarioError(f"{where} must be true or false, got {v!r}")
    return v


def _count(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ScenarioError(f"{where} must be a positive integer, got {v!r}")
    return v


def _reject_free_inputs(machines):
    for m in machines:
        for spec in m.inputs:
            if spec.kind == "free":
                raise ScenarioError(
                    f"machine {m.mid!r} input {spec.var!r}: free inputs "
                    f"need symbolic mode (use 'enumerate' or 'script')"
                )


def load_scenario(path, extra_sources=()) -> Scenario:
    """Read a scenario JSON file; .st sources resolve next to it."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: a scenario is a JSON object")
    units = []
    sources = doc.get("sources", [])
    if not isinstance(sources, list):
        raise ScenarioError(f"{path}: 'sources' must be a list of file names, got {sources!r}")
    if not sources and not extra_sources:
        raise ScenarioError(f"{path}: no 'sources' listed and none supplied")
    for src in sources:
        if not isinstance(src, str):
            raise ScenarioError(f"{path}: source {src!r} is not a file name")
        sp = path.parent / src
        if not sp.is_file():
            raise ScenarioError(f"{path}: source file {src!r} not found")
        units.extend(_parse_source(sp.read_text(), sp))
    for text, name in extra_sources:
        units.extend(_parse_source(text, name))
    try:
        table = PouTable.from_units(units)
    except ElabError as e:
        raise ScenarioError(f"{path}: in its sources, {e}") from e
    return scenario_from_dict(doc, table)


def _parse_source(text: str, name):
    try:
        return parse_file(text)
    except (LexError, ParseError) as e:
        raise ScenarioError(f"{name}: {e}")
