"""Bounded reachability search over the system transition graph.

The search walks breadth-first through canonically deduplicated states,
prunes branches once the global clock provably exceeds the bound, and
tests a user property at every retained state.  Concrete runs evaluate
the property directly; symbolic runs hand the path condition plus the
property to the satisfiability checker and extract a witness model.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .model import ModelError, SystemState, canonicalize
from .por import TransitionId, apply, successors
from .st import BinOp, FieldRef, Lit, UnOp, VarRef, parse_expression
from .symbolic import concrete_or_none, feasible
# perfbench/tracing.py rebinds explorer.due_machines, so the name stays
# importable from this module.
from .timed import RuleCtx, due_machines, tick_apply  # noqa: F401
from .values import (
    Poly,
    band,
    bnot,
    bor,
    cmp_le,
    vadd,
    vcmp,
    vdiv,
    vmul,
    vneg,
    vsub,
)

SOLUTION_FOUND = "SolutionFound"
NO_SOLUTION = "NoSolution"
BOUND_EXHAUSTED = "BoundExhausted"


class PropertyError(Exception):
    pass


# -- state properties --------------------------------------------------------


def compile_property(s0: SystemState, text: str):
    """Build an evaluator for a boolean expression over machine state.

    Bare names resolve against the physical state variables of all
    machines and must be unique; `machine.var` qualifies explicitly.
    """
    expr = parse_expression(text)
    owners: dict = {}
    mids = set()
    for m in s0.machines:
        mids.add(m.mid)
        for name, _ in m.state:
            owners.setdefault(name, []).append(m.mid)
    _check_refs(expr, owners, mids)

    def prop(s: SystemState):
        vals = {m.mid: dict(m.state) for m in s.machines}
        return _eval(expr, vals, owners)

    return prop


def _check_refs(e, owners, mids):
    if isinstance(e, VarRef):
        found = owners.get(e.name)
        if not found:
            raise PropertyError(f"unknown state variable {e.name!r}")
        if len(found) > 1:
            raise PropertyError(
                f"{e.name!r} lives on machines {sorted(found)}; qualify it"
            )
    elif isinstance(e, FieldRef):
        if e.base not in mids:
            raise PropertyError(f"unknown machine {e.base!r}")
    elif isinstance(e, BinOp):
        _check_refs(e.lhs, owners, mids)
        _check_refs(e.rhs, owners, mids)
    elif isinstance(e, UnOp):
        _check_refs(e.operand, owners, mids)


def _eval(e, vals, owners):
    if isinstance(e, Lit):
        v = e.value
        if isinstance(v, int) and not isinstance(v, bool):
            return Fraction(v)
        return v
    if isinstance(e, VarRef):
        return vals[owners[e.name][0]][e.name]
    if isinstance(e, FieldRef):
        try:
            return vals[e.base][e.field]
        except KeyError:
            raise PropertyError(f"machine {e.base!r} has no state {e.field!r}")
    if isinstance(e, UnOp):
        v = _eval(e.operand, vals, owners)
        return bnot(v) if e.op == "NOT" else vneg(v)
    if isinstance(e, BinOp):
        a = _eval(e.lhs, vals, owners)
        b = _eval(e.rhs, vals, owners)
        if e.op == "AND":
            return band(a, b)
        if e.op == "OR":
            return bor(a, b)
        if e.op == "+":
            return vadd(a, b)
        if e.op == "-":
            return vsub(a, b)
        if e.op == "*":
            return vmul(a, b)
        if e.op == "/":
            return vdiv(a, b)
        return vcmp(e.op, a, b)
    raise PropertyError(f"unsupported expression {e!r}")


# -- results -----------------------------------------------------------------


@dataclass
class Witness:
    state: SystemState
    path: tuple  # TransitionIds from the initial state
    model: dict  # symbolic variable assignment, {} for concrete hits
    valuations: tuple  # ((mid, var, value), ...) under the model


@dataclass
class SearchResult:
    verdict: str
    witnesses: list
    bound: Fraction
    states_explored: int = 0
    transitions_fired: int = 0
    smt_queries: int = 0
    smt_by_class: dict = field(default_factory=dict)
    wall_time: float = 0.0
    endpoints: set = field(default_factory=set)

    @property
    def found(self) -> bool:
        return self.verdict == SOLUTION_FOUND

    def to_jsonable(self) -> dict:
        return {
            "verdict": self.verdict,
            "bound": str(self.bound),
            "statesExplored": self.states_explored,
            "transitionsFired": self.transitions_fired,
            "smtQueries": self.smt_queries,
            "smtByClass": dict(sorted(self.smt_by_class.items())),
            "wallTime": round(self.wall_time, 4),
            "witnesses": [
                {
                    "path": [t.pretty() for t in w.path],
                    "model": {k: str(v) for k, v in sorted(w.model.items())},
                    "valuations": [
                        [mid, var, str(v)] for mid, var, v in w.valuations
                    ],
                }
                for w in self.witnesses
            ],
        }


# -- search ------------------------------------------------------------------


def search(
    ctx: RuleCtx,
    s0: SystemState,
    property_text: str = None,
    bound=Fraction(100),
    max_solutions: int = 1,
    por: bool = None,
    max_states: int = None,
) -> SearchResult:
    """Breadth-first reachability up to the time bound.

    With no property the graph is simply explored (for statistics and
    endpoint comparisons).  Witness states satisfy the property with the
    global clock inside the bound.
    """
    t_start = time.monotonic()
    stats = ctx.checker.stats
    queries0, by_class0 = stats.queries, dict(stats.by_class)
    prop = compile_property(s0, property_text) if property_text else None
    bound = Fraction(bound)

    key0 = canonicalize(s0)
    parents = {key0: None}
    queue = deque([(s0, key0)])
    witnesses = []
    fired = 0
    endpoints = set()
    capped = False

    while queue:
        s, key = queue.popleft()
        if prop is not None and len(witnesses) < max_solutions:
            w = _solution_at(ctx, s, key, parents, prop, bound)
            if w is not None:
                witnesses.append(w)
                if len(witnesses) >= max_solutions:
                    break
        succ = successors(ctx, s, por=por)
        # A state is a cycle endpoint exactly when some machine is due.
        # Every due machine yields a start move, because scenarios reject
        # empty enumerated input domains.
        if any(tid.cls == "start" for tid, _ in succ):
            endpoints.add(_endpoint_record(s))
        for tid, st in succ:
            fired += 1
            st = _clip_to_bound(ctx, st, bound)
            if st is None:
                continue
            k2 = canonicalize(st)
            if k2 in parents:
                continue
            parents[k2] = (key, tid)
            queue.append((st, k2))
            if max_states is not None and len(parents) >= max_states:
                capped = True
                queue.clear()
                break

    if witnesses:
        verdict = SOLUTION_FOUND
    elif capped:
        verdict = BOUND_EXHAUSTED
    else:
        verdict = NO_SOLUTION
    by_class = {k: v - by_class0.get(k, 0) for k, v in stats.by_class.items()}
    return SearchResult(
        verdict=verdict,
        witnesses=witnesses,
        bound=bound,
        states_explored=len(parents),
        transitions_fired=fired,
        smt_queries=stats.queries - queries0,
        smt_by_class={k: v for k, v in by_class.items() if v},
        wall_time=time.monotonic() - t_start,
        endpoints=endpoints,
    )


def _clip_to_bound(ctx: RuleCtx, s: SystemState, bound: Fraction):
    """Absorb states past the bound; pin symbolic clocks inside it."""
    c = concrete_or_none(s.clock)
    if c is not None:
        return s if c <= bound else None
    cond = cmp_le(s.clock, bound)
    if not feasible(ctx.checker, s, cond, cls="env"):
        return None
    return s.add_constraints(cond)


def _endpoint_record(s: SystemState):
    return tuple(
        (m.mid, tuple((name, _freeze(v)) for name, v in m.state))
        for m in s.machines
    )


def _freeze(v):
    return repr(v) if isinstance(v, Poly) else v


def _solution_at(ctx, s, key, parents, prop, bound):
    got = prop(s)
    if got is False:
        return None
    clock_ok = True
    c = concrete_or_none(s.clock)
    if c is None:
        clock_ok = cmp_le(s.clock, bound)
    if got is True and clock_ok is True and not s.constraints:
        return Witness(s, _path_to(parents, key), {}, _valuations(s, {}))
    cond = band(*s.constraints, clock_ok, got)
    if cond is False:
        return None
    if cond is True:
        return Witness(s, _path_to(parents, key), {}, _valuations(s, {}))
    verdict = ctx.checker.check(cond, cls="property")
    if not verdict.is_sat:
        return None
    model = dict(verdict.model or {})
    return Witness(s, _path_to(parents, key), model, _valuations(s, model))


def _path_to(parents, key) -> tuple:
    path = []
    entry = parents[key]
    while entry is not None:
        pkey, tid = entry
        path.append(tid)
        entry = parents[pkey]
    return tuple(reversed(path))


def _valuations(s: SystemState, model: dict) -> tuple:
    out = []
    for m in s.machines:
        for name, v in m.state:
            out.append((m.mid, name, _under(v, model)))
    return tuple(out)


def _under(v, model: dict):
    if isinstance(v, Poly):
        full = {name: Fraction(model.get(name, 0)) for name in v.variables()}
        r = v.substitute(full)
        return r.const_value()
    return v


def _replayed(ctx: RuleCtx, s0: SystemState, path):
    """Yield (tid, state) for each step of a recorded transition path."""
    s = s0
    for tid in path:
        s = apply(ctx, s, tid)
        yield tid, s


def replay(ctx: RuleCtx, s0: SystemState, path) -> SystemState:
    """Re-run a recorded transition path from the initial state."""
    s = s0
    for _, s in _replayed(ctx, s0, path):
        pass
    return s


def random_walk(ctx: RuleCtx, s0: SystemState, steps: int, rng) -> list:
    """A uniformly random unreduced trace; returns [(tid, state), ...]."""
    out = []
    s = s0
    for _ in range(steps):
        succ = successors(ctx, s, por=False)
        if not succ:
            break
        tid, s = rng.choice(succ)
        out.append((tid, s))
    return out


# Failure branches rank below their success twins when simulating.
_SIM_COST = {"conFail": 1, "sendDataFail": 1, "rcvNo": 1, "rcvFail": 2}


def simulate(ctx: RuleCtx, s0: SystemState, until, max_steps: int = 100000) -> list:
    """Deterministic concrete run up to a time horizon.

    Policy: fire due scan starts first, then the lowest-numbered
    machine's moves preferring success branches, and only then let time
    pass to the nearest boundary (clipped at the horizon).  Returns
    [(tid, state), ...] with the initial state first under a None tid.
    """
    until = Fraction(until)
    s = s0
    out = [(None, s0)]
    for _ in range(max_steps):
        if s.clock >= until:
            break
        pick = _sim_pick(successors(ctx, s, por=False), s, until)
        if pick is None:
            break
        out.append(pick)
        s = pick[1]
    else:
        raise ModelError(f"simulation did not settle within {max_steps} steps")
    return out


def _sim_pick(succ, s: SystemState, until):
    starts = [p for p in succ if p[0].cls == "start"]
    if starts:
        return starts[0]
    machine = [p for p in succ if p[0].cls in ("internal", "comm")]
    if machine:
        first = machine[0][0].mid
        mine = [p for p in machine if p[0].mid == first]
        return min(mine, key=lambda p: _SIM_COST.get(p[0].label, 0))
    for tid, t in succ:
        if tid.cls != "tick":
            continue
        (d,) = tid.key
        clip = min(Fraction(d), until - s.clock)
        if clip <= 0:
            return None
        if clip == d:
            return (tid, t)
        return (TransitionId("tick", "", "tick", (clip,)), tick_apply(s, clip))
    envs = [p for p in succ if p[0].cls == "env"]
    if envs:
        return envs[0]
    return None


def trace_lines(ctx: RuleCtx, s0: SystemState, path) -> list:
    """Human-readable replay of a transition path."""
    lines = [f"  0  clock={s0.clock}  (initial)"]
    for i, (tid, s) in enumerate(_replayed(ctx, s0, path), 1):
        lines.append(f"{i:>3}  clock={s.clock}  {tid.pretty()}")
    return lines
