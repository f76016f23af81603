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

from .kmachine import Literals, eval_expr
from .model import ModelError, SystemState, canonicalize
from .por import Delta, apply, successors
from .st import LexError, ParseError, parse_expression
from .symbolic import concrete_or_none, feasible
# perfbench/tracing.py rebinds explorer.due_machines, so the name stays
# importable from this module.
from .timed import RuleCtx, diagnose_stuck, due_machines, env_tick_apply, tick_apply  # noqa: F401
from .values import (
    EvalError,
    band,
    cmp_le,
    copy_with,
    evaluate,
    is_boolish,
    rat,
    variables,
    vsub,
)

SOLUTION_FOUND = "SolutionFound"
NO_SOLUTION = "NoSolution"
BOUND_EXHAUSTED = "BoundExhausted"


class PropertyError(Exception):
    pass


# -- state properties --------------------------------------------------------


class _StateNames(Literals):
    """A property's names: the physical state variables of one state's
    machines.  A bare name must live on exactly one machine."""

    def __init__(self, owners: dict, s: SystemState):
        self.owners = owners
        self.s = s

    def var(self, name: str):
        found = self.owners.get(name)
        if not found:
            raise EvalError(f"unknown state variable {name!r}")
        if len(found) > 1:
            raise EvalError(f"{name!r} lives on machines {sorted(found)}; qualify it")
        return self.field(found[0], name)

    def field(self, base: str, name: str):
        try:
            return self.s.machine(base).state_value(name)
        except ModelError as exc:
            raise EvalError(str(exc)) from exc


def compile_property(s0: SystemState, text: str):
    """Build an evaluator for a property: an ST expression over state names.

    It means what the same text means in a program (`kmachine.eval_expr`);
    a bare name must be unique among all machines' state variables, and
    `machine.var` qualifies explicitly.  A text that does not lex or parse
    raises PropertyError, with the position in the text; the property is
    then evaluated once on `s0`: an unknown name, an ill-typed property,
    or one that is not a boolean raises PropertyError here.

    The property reads nothing but the machines' plant states, so the
    evaluator keeps one result per distinct tuple of them, with the class
    of every value beside it (`True == 1`, yet only one of them is a
    number).  An evaluation that raises keeps nothing and raises again.
    """
    try:
        expr = parse_expression(text)
    except (LexError, ParseError) as exc:
        raise PropertyError(f"cannot parse {text!r}: {exc}") from exc
    owners: dict = {}
    for m in s0.machines:
        for name, _ in m.state:
            owners.setdefault(name, []).append(m.mid)
    memo: dict = {}

    def prop(s: SystemState):
        key = tuple([
            (m.mid, m.state, tuple([v.__class__ for _, v in m.state])) for m in s.machines
        ])
        got = memo.get(key, memo)
        if got is memo:
            try:
                got = memo[key] = eval_expr(expr, _StateNames(owners, s))
            except EvalError as exc:
                raise PropertyError(f"cannot evaluate {text!r}: {exc}") from exc
        return got

    if not is_boolish(prop(s0)):
        raise PropertyError(f"{text!r} is not a boolean property")
    return prop


# -- results -----------------------------------------------------------------


@dataclass
class Witness:
    state: SystemState
    path: tuple  # TransitionIds from the initial state
    model: dict  # symbolic variable assignment, {} for concrete hits
    valuations: tuple  # ((mid, var, value), ...) under the model


@dataclass
class Timelocks:
    """The expanded states of a search where time cannot pass and nothing
    can move: no successor, and no symbolic tick folded into the one that
    led there (`SystemState.ticked`), so in symbolic runs a lock that a
    tick runs into is not counted.  `earliest` is the least concrete
    clock among them (None when there are none, or every one is
    symbolic), `reasons` the distinct `timed.diagnose_stuck` notes of all
    of them, sorted, and `path` the transitions from the initial state to
    the first one stored at `earliest` (to the first one stored when no
    clock is concrete)."""

    count: int = 0
    earliest: object = None
    reasons: tuple = ()
    path: tuple = ()

    def to_jsonable(self) -> dict:
        return {
            "count": self.count,
            "earliestClock": None if self.earliest is None else str(self.earliest),
            "reasons": list(self.reasons),
            "path": [t.pretty() for t in self.path],
        }


@dataclass
class SearchResult:
    verdict: str
    witnesses: list
    bound: object  # rational
    states_explored: int = 0
    transitions_fired: int = 0
    smt_queries: int = 0
    smt_by_class: dict = field(default_factory=dict)
    wall_time: float = 0.0
    endpoints: set = field(default_factory=set)
    timelocks: Timelocks = field(default_factory=Timelocks)

    @property
    def found(self) -> bool:
        return self.verdict == SOLUTION_FOUND

    def to_jsonable(self) -> dict:
        # `timelocked` beside the verdict: a NoSolution over a graph where
        # time stops says less than one over a graph where it runs on.
        return {
            "verdict": self.verdict,
            "timelocked": self.timelocks.count > 0,
            "bound": str(self.bound),
            "statesExplored": self.states_explored,
            "transitionsFired": self.transitions_fired,
            "smtQueries": self.smt_queries,
            "smtByClass": dict(sorted(self.smt_by_class.items())),
            "wallTime": round(self.wall_time, 4),
            "timelocks": self.timelocks.to_jsonable(),
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
    *,
    bound,
    max_states: int = None,
) -> SearchResult:
    """Breadth-first reachability up to the time bound.

    With no property the graph is simply explored (for statistics and
    endpoint comparisons).  Witness states satisfy the property with the
    global clock inside the bound.  The options of `s0` decide the mode
    and whether the reduction runs.  `max_states`, a positive int, caps
    the stored states, the initial one included: the search stops
    expanding once it has stored that many, checks the property at the
    stored states it has not expanded, and answers BoundExhausted unless
    one of them is a witness.
    """
    if isinstance(bound, bool):
        raise ValueError(f"bound must be a number, got {bound!r}")
    bound = rat(bound)
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if max_states is not None and (
            isinstance(max_states, bool) or not isinstance(max_states, int) or max_states < 1):
        raise ValueError(f"max_states must be a positive integer or None, got {max_states!r}")
    t_start = time.monotonic()
    stats = ctx.checker.stats
    queries0, by_class0 = stats.queries, dict(stats.by_class)
    prop = compile_property(s0, property_text) if property_text else None

    # A search meets each scan start on many interleavings (see RuleCtx).
    if ctx.started is None:
        ctx.started = {}
    # The canonical form's memo; lives as long as `parents`.
    memo: dict = {}
    key0 = canonicalize(s0, memo)
    parents = {key0: None}
    queue = deque([(s0, key0)])
    witnesses = []
    fired = 0
    endpoints = set()
    stuck = []  # (concrete clock or None, key) of each time-locked state
    notes = set()  # their `diagnose_stuck` reasons
    capped = max_states is not None and len(parents) >= max_states

    while queue and not capped:
        s, key = queue.popleft()
        if prop is not None:
            w = _solution_at(ctx, s, key, parents, prop, bound)
            if w is not None:
                witnesses.append(w)
                break
        # By keyword: the benchmark's calibration wrapper passes on
        # keywords only.
        succ = successors(ctx, s, bound=bound)
        # No successor and no tick folded away (`ticked`): time is locked.
        if not succ and not s.ticked:
            stuck.append((concrete_or_none(s.clock), key))
            notes.update(diagnose_stuck(s))
        # A state is a cycle endpoint exactly when some machine is due.
        # Every due machine yields a start move, because scenarios reject
        # empty enumerated input domains.
        if any(tid.cls == "start" for tid, _ in succ):
            endpoints.add(_endpoint_record(s))
        for tid, st in succ:
            fired += 1
            if st is None:  # past the bound, and never built
                continue
            if st.__class__ is Delta:
                k2 = st.key
            else:
                # Absorb states past the bound; pin symbolic clocks inside it.
                st = feasible(ctx.checker, st, cmp_le(st.clock, bound), cls="env")
                if st is False:
                    continue
                k2 = canonicalize(st, memo)
            # One lookup hashes the key once; a known key keeps its entry.
            n = len(parents)
            parents.setdefault(k2, (key, tid))
            if len(parents) == n:
                continue
            if st.__class__ is Delta:
                st = st.state()
            queue.append((st, k2))
            if max_states is not None and len(parents) >= max_states:
                capped = True
                break
    if capped and prop is not None:
        # the stored states left unexpanded are reachable too
        for s, key in queue:
            w = _solution_at(ctx, s, key, parents, prop, bound)
            if w is not None:
                witnesses.append(w)
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
        timelocks=_timelocks(stuck, notes, parents),
    )


def _timelocks(stuck: list, notes: set, parents: dict) -> Timelocks:
    if not stuck:
        return Timelocks()
    earliest = min((c for c, _ in stuck if c is not None), default=None)
    # the first one stored at `earliest`, or the first one
    key = next(k for c, k in stuck if c == earliest)
    return Timelocks(len(stuck), earliest, tuple(sorted(notes)), _path_to(parents, key))


def _endpoint_record(s: SystemState):
    return tuple((m.mid, m.state) for m in s.machines)


def _solution_at(ctx, s, key, parents, prop, bound):
    got = prop(s)
    if got is False:
        return None
    cond = band(*s.constraints, cmp_le(s.clock, bound), got)
    if cond is False:
        return None
    model = {} if cond is True else ctx.checker.check(cond, cls="property")
    if model is None:
        return None
    # the checker's model is its cache entry, so the witness gets a copy
    return Witness(s, _path_to(parents, key), dict(model), _valuations(s, model))


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
    """`v` under the model, with variables the model leaves free at 0."""
    return evaluate(v, {name: model.get(name, 0) for name in variables(v)})


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
    pass to the nearest boundary.  Each step builds only the group of
    moves it picks from (`successors(..., first=True)`).  The step that
    moves the global clock (tick, or envTick with clock separation) is
    cut short at the horizon; `replay` takes it by its duration.  Returns
    [(tid, state), ...] with the initial state first under a None tid.

    `s0` must be a concrete-mode state: a symbolic tick has no duration
    to run by.  `max_steps`, a positive int, caps the steps; a run that
    has neither reached the horizon nor stopped by then raises
    ModelError.
    """
    if s0.options.symbolic:
        raise ValueError(f"simulate runs concrete states only, got mode {s0.options.mode!r}")
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) or max_steps < 1:
        raise ValueError(f"max_steps must be a positive integer, got {max_steps!r}")
    if isinstance(until, bool):
        raise ValueError(f"until must be a number, got {until!r}")
    until = rat(until)
    if until < s0.clock:
        raise ValueError(f"until must not lie before the initial clock {s0.clock}, got {until}")
    s = s0
    out = [(None, s0)]
    for _ in range(max_steps):
        if s.clock >= until:
            break
        pick = _sim_pick(ctx, successors(ctx, s, first=True), s, until)
        if pick is None:
            break
        out.append(pick)
        s = pick[1]
    else:
        if s.clock < until:
            raise ModelError(f"simulation did not settle within {max_steps} steps")
    return out


def _sim_pick(ctx: RuleCtx, group: list, s: SystemState, until):
    """The step `simulate` takes from one group of `successors(...,
    first=True)`, or None when there is none."""
    if not group:
        return None
    tid, t = group[0]
    if tid.cls == "start":
        return group[0]
    if tid.cls in ("internal", "comm"):
        return min(group, key=lambda p: _SIM_COST.get(p[0].label, 0))
    # A time step: ticks come before envTicks.
    clocked = "env" if s.options.clock_sep else "tick"
    left = vsub(until, s.clock)
    if tid.cls != clocked or tid.key[0] <= left:
        return tid, t
    clipped = copy_with(tid, key=(left,))
    return clipped, (env_tick_apply if clocked == "env" else tick_apply)(ctx, s, left)


def trace_lines(ctx: RuleCtx, s0: SystemState, path) -> list:
    """Human-readable replay of a transition path."""
    lines = [f"  0  clock={s0.clock}  (initial)"]
    for i, (tid, s) in enumerate(_replayed(ctx, s0, path), 1):
        lines.append(f"{i:>3}  clock={s.clock}  {tid.pretty()}")
    return lines
