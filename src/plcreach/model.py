"""Networked system state: controllers, links, in-flight messages.

A system snapshot combines one execution configuration per controller with
the physical state each controller senses and drives, the point-to-point
links, and (for symbolic runs) the path constraint collected so far.
Everything is immutable; rules in the timed/comm layers produce new
snapshots.

Physical quantities evolve between scans according to per-variable change
laws: polynomials in the elapsed time `t` whose other names refer to the
numeric state values held when the segment began.  A law must reproduce the
current value at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .kmachine import KConfig, config_key, config_vars
from .values import (
    Cmp,
    Poly,
    band,
    ckey_of,
    conjuncts,
    copy_with,
    irredundant,
    is_fresh,
    order_key,
    rename,
    substitute,
    variables,
)

FLOW_TIME = "t"  # reserved name inside change laws


class ModelError(Exception):
    pass


# -- static configuration ---------------------------------------------------


@dataclass(frozen=True)
class InputSpec:
    """How one program variable gets refreshed at the top of each cycle."""

    prog: str
    var: str
    kind: str  # "script" | "enumerate" | "free"
    values: tuple = ()  # script: per-cycle; enumerate: domain
    lo: object = None  # free: rational interval bounds (else finite domain)
    hi: object = None


@dataclass(frozen=True)
class Options:
    mode: str = "concrete"  # "concrete" | "symbolic"
    por: bool = False
    clock_sep: bool = False
    rcv_no_on_pending: bool = False
    reliable_connect: bool = False

    @property
    def symbolic(self) -> bool:
        return self.mode == "symbolic"


@dataclass(frozen=True)
class TransitionId:
    """Replayable identity of one transition out of a given state."""

    cls: str  # "start" | "tick" | "env" | "internal" | "comm"
    mid: str  # owning machine; "" for system-wide moves and a state's only start
    label: str
    key: tuple = ()

    def pretty(self) -> str:
        who = f"({self.mid})" if self.mid else ""
        extra = "[" + ",".join(_shown(k, str) for k in self.key) + "]" if self.key else ""
        return f"{self.label}{who}{extra}"


def _shown(v, show=repr) -> str:
    """`v` as a key prints it: a number as `str` does (`0`, `5/2`), a tuple
    item by item, anything else by `show`."""
    if isinstance(v, tuple):
        items = [_shown(x) for x in v]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    return str(v) if isinstance(v, Fraction) else show(v)


# -- dynamic pieces ---------------------------------------------------------


@dataclass(frozen=True)
class Msg:
    sender: str  # sending program
    receiver: str  # destination program
    send_fb: str  # block instance that sent
    recv_fb: str  # block instance expected to pick it up
    data: object
    min_timer: object  # rational | Poly: delivery opens at 0
    max_timer: object  # rational | Poly: delivery forced by 0
    seq: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Conn:
    pair: tuple  # sorted (prog, prog)
    valid: bool = False
    buffer: tuple = ()  # Msg, in insertion order
    delay_lo: object = 10  # rational
    delay_hi: object = 20


def conn_pair(a: str, b: str) -> tuple:
    return tuple(sorted((a, b)))


@dataclass(frozen=True)
class PLCMachine:
    mid: str
    cfg: KConfig
    timer: object  # rational | Poly; time left until the next scan starts
    env_timer: object  # rational countdown to the next physical update
    state: tuple  # ((name, value), ...) sorted
    flow: tuple  # ((name, Poly), ...) sorted; values at elapsed t
    cycle_time: object  # rational
    # Static layout, fixed when the machine is built: each program with its
    # environment, in scan order (`kmachine.allocate`), and the scan start
    # that `timed.compile_start` makes of them, the plant names and inputs.
    programs: tuple  # ((program, env), ...)
    plan: object = field(compare=False, repr=False)  # timed.StartPlan
    cycle_index: int = 0
    inputs: tuple = ()  # (InputSpec, ...)

    def state_value(self, name: str):
        for nm, v in self.state:
            if nm == name:
                return v
        raise ModelError(f"{self.mid} has no state variable {name}")

    def with_state(self, updates: dict) -> "PLCMachine":
        known = {nm for nm, _ in self.state}
        bad = set(updates) - known
        if bad:
            raise ModelError(f"{self.mid} has no state variable(s) {sorted(bad)}")
        new = tuple((nm, updates.get(nm, v)) for nm, v in self.state)
        return copy_with(self, state=new)


@dataclass(frozen=True)
class SystemState:
    machines: tuple  # (PLCMachine, ...) ordered by mid
    conns: tuple  # (Conn, ...) ordered by pair
    clock: object  # rational | Poly
    # The path condition: satisfiable conjuncts (atoms and Ors), sorted by
    # `_ckey`, deduplicated, and irredundant: no inequality atom in it is
    # implied by one other inequality atom in it and its sign atoms
    # (`values.irredundant`).  Guards join it through symbolic.feasible, free
    # inputs' domains through timed.start_scans; `propagate_pins` keeps it so.
    constraints: tuple = ()
    fresh_counter: int = 0
    msg_seq: int = 0
    ticked: bool = False
    options: Options = Options()

    def machine(self, mid: str) -> PLCMachine:
        for m in self.machines:
            if m.mid == mid:
                return m
        raise ModelError(f"no machine {mid}")

    def with_machine(self, m: PLCMachine) -> "SystemState":
        return copy_with(
            self, machines=tuple(m if x.mid == m.mid else x for x in self.machines)
        )

    def conn(self, a: str, b: str) -> Optional[Conn]:
        pair = conn_pair(a, b)
        for c in self.conns:
            if c.pair == pair:
                return c
        return None

    def with_conn(self, c: Conn) -> "SystemState":
        if any(x.pair == c.pair for x in self.conns):
            conns = tuple(c if x.pair == c.pair else x for x in self.conns)
        else:
            conns = tuple(sorted(self.conns + (c,), key=lambda x: x.pair))
        return copy_with(self, conns=conns)


# -- change laws ------------------------------------------------------------


def validate_flow(name: str, law: Poly):
    """At t = 0 the law must give back the variable itself."""
    if name == FLOW_TIME:
        raise ModelError(f"{FLOW_TIME!r} cannot be a state variable")
    at_zero = law.substitute({FLOW_TIME: Poly.const(0)})
    if at_zero != Poly.var(name):
        raise ModelError(f"change law for {name} does not start from {name}: {law!r}")


def apply_flow(m: PLCMachine, duration) -> PLCMachine:
    """Advance the physical state by `duration` along the change laws."""
    if not m.flow:
        return m
    base = dict(m.state)
    base[FLOW_TIME] = duration
    return m.with_state({nm: substitute(law, base) for nm, law in m.flow})


# -- pinned variables -------------------------------------------------------


def _fresh_rank(name: str) -> int:
    i = len(name)
    while i > 0 and name[i - 1].isdigit():
        i -= 1
    return int(name[i:]) if i < len(name) else -1


def _solve_eq(c, anchored):
    """Solve a linear equality conjunct for one fresh variable.

    Returns (var, solution polynomial) with the newest eliminable variable
    chosen, or None.  Newest-first matters: chained time jumps constrain
    sums of durations, and eliminating the later variable rewrites the
    state in terms of the earlier one instead of the other way round.
    """
    if not isinstance(c, Cmp) or c.op != "==" or not c.lhs.is_linear():
        return None
    for x in sorted(c.lhs.variables(), key=_fresh_rank, reverse=True):
        if not is_fresh(x) or x in anchored:
            continue
        a = c.lhs.coeff(x)
        if a:
            return x, c.lhs.drop(x).scale(Fraction(-1) / a)
    return None


def propagate_pins(s: SystemState, memo: dict = None) -> SystemState:
    """Eliminate fresh variables the path condition determines.

    Each linear equality conjunct is solved for one variable and the
    solution substituted through the whole snapshot: a logically neutral
    rewrite, but it lets snapshots that differ only in how they spell a
    quantity share a canonical form, and it keeps guards over determined
    durations concrete instead of forking.  A variable still referenced
    from inside a controller configuration is left alone; its equality
    then stays in the path condition, which keeps the pin observable.

    A substitution can make one inequality imply another, so the path
    condition is pruned again (`values.irredundant`, through `memo`, the
    search's memo on its checker) and stays irredundant.
    """
    if not s.constraints:
        return s
    anchored = {n for m in s.machines for n in config_vars(m.cfg) if is_fresh(n)}
    for _ in range(32):
        sol = None
        for c in s.constraints:
            sol = _solve_eq(c, anchored)
            if sol:
                break
        if not sol:
            return s
        s = _substitute_state(s, {sol[0]: sol[1]}, memo)
    return s


def _substitute_state(s: SystemState, mapping, memo: dict = None) -> SystemState:
    machines = tuple(
        copy_with(
            m,
            timer=substitute(m.timer, mapping),
            state=tuple((nm, substitute(v, mapping)) for nm, v in m.state),
        )
        for m in s.machines
    )
    conns = tuple(
        copy_with(
            c,
            buffer=tuple(
                copy_with(
                    msg,
                    data=substitute(msg.data, mapping),
                    min_timer=substitute(msg.min_timer, mapping),
                    max_timer=substitute(msg.max_timer, mapping),
                )
                for msg in c.buffer
            ),
        )
        for c in s.conns
    )
    merged = irredundant(band(*(substitute(c, mapping) for c in s.constraints)), memo)
    if merged is False:
        raise ModelError("pinned substitution contradicts the path condition")
    return copy_with(
        s,
        machines=machines,
        conns=conns,
        clock=substitute(s.clock, mapping),
        constraints=conjuncts(merged),
    )


# -- canonical form ---------------------------------------------------------


def _constraint_facts(c, memo: dict) -> tuple:
    """(sort key, sorted variable names) of one constraint, memoised by
    the constraint, so that equal atoms built apart hit in C.  The sort
    key is the masked order, its ties broken by the constraint's key."""
    facts = memo.get(c)
    if facts is None:
        facts = memo[c] = ((order_key(c, True), c._ckey), variables(c))
    return facts


def _live_slice(constraints: tuple, live: set, memo: dict) -> list:
    """The constraints transitively linked to the names in `live` (which
    grows), as (constraint, facts) pairs in canonical order.  The rest
    restrict variables nothing refers to any more, and each stored state
    already has a satisfiable path condition."""
    remaining = [(c, _constraint_facts(c, memo)) for c in constraints]
    kept: list = []
    changed = True
    while changed:
        changed = False
        still = []
        for cf in remaining:
            cv = cf[1][1]
            if not live.isdisjoint(cv):
                kept.append(cf)
                live.update(cv)
                changed = True
            else:
                still.append(cf)
        remaining = still
    kept.sort(key=lambda cf: cf[1][0])
    return kept


def _renaming(names: dict, memo: dict):
    """The renamers of one canonicalization: `value(v, vs=None)`, for a
    value whose sorted variables are `vs`, and `config(cfg)`.  Before
    renaming, each gives the fresh variables that `names` lacks the next
    `v{i}` names, in sorted order (a configuration's in `config_vars`
    order), so a walk that visits values in a fixed order names them by
    first use.  A value's renaming is memoised in `memo` by the value and
    the new names of its variables."""

    def name(vs):
        for n in vs:
            if n not in names and is_fresh(n):
                names[n] = f"v{len(names)}"

    def value(v, vs=None):
        if vs is None:
            vs = variables(v)
        if not vs:
            return v
        name(vs)
        key = (v, tuple([names.get(n) for n in vs]))
        got = memo.get(key)
        if got is None:
            got = memo[key] = rename(v, names)
        return got

    def config(cfg):
        name(config_vars(cfg))
        return config_key(cfg, names)

    return value, config


def _same(v, vs=None):
    """The renamer of a state without fresh variables."""
    return v


def _renamed_state(state: tuple, ren) -> tuple:
    """A plant state with its values renamed in order; the state's own
    tuple while no value changes, so that keys share it."""
    for i, (nm, v) in enumerate(state):
        r = ren(v)
        if r is not v:
            return state[:i] + ((nm, r),) + tuple([(n, ren(x)) for n, x in state[i + 1:]])
    return state


def _machine_piece(m: PLCMachine, ren=_same, ren_config=_same) -> tuple:
    # the configuration is met after the timer and the plant values
    timer = ren(m.timer)
    state = _renamed_state(m.state, ren)
    return (m.mid, ren_config(m.cfg), timer, m.env_timer, state, m.cycle_time, m.cycle_index)


def _link_piece(c: Conn, ren=_same) -> tuple:
    msgs = [
        (
            msg.sender,
            msg.receiver,
            msg.send_fb,
            msg.recv_fb,
            ren(msg.data),
            ren(msg.min_timer),
            ren(msg.max_timer),
        )
        for msg in c.buffer
    ]
    # receive matches on headers, never on buffer position, so the buffer
    # is a multiset: sort to merge send-order interleavings
    if len(msgs) > 1:
        msgs.sort(key=order_key)
    return (c.pair, c.valid, c.delay_lo, c.delay_hi, tuple(msgs))


def _exact_link(c: Conn) -> tuple:
    # every field, the buffer in order, with each message's `seq` (which
    # `Msg` equality ignores) and the class of its data (`True == 1`)
    msgs = tuple([
        (msg.sender, msg.receiver, msg.send_fb, msg.recv_fb, msg.data.__class__, msg.data,
         msg.min_timer, msg.max_timer, msg.seq)
        for msg in c.buffer
    ])
    return (c.pair, c.valid, c.delay_lo, c.delay_hi, msgs)


# The instance-dict entries where a machine or link keeps its key piece
# under the identity renaming, and a link its exact piece (`exact_links`).
# `copy_with` copies only fields, so no copy has them.
_PIECE = "_key_piece"
_EXACT = "_exact_piece"


def _kept(record, piece_of, entry: str = _PIECE) -> tuple:
    d = record.__dict__
    piece = d.get(entry)
    if piece is None:
        piece = d[entry] = piece_of(record)
    return piece


def exact_links(s: SystemState) -> tuple:
    """The links of `s` as an exact key: equal exactly when the links are
    equal field by field, in buffer order, with each message's `seq` and
    the class of its data.  Unlike the canonical key it tells apart
    buffers in another order and messages of another `seq`, which moves
    and ticks carry into their successors.  Each link keeps its piece in
    its instance dict, so a successor reuses the pieces of the links it
    shares with its parent."""
    return tuple([_kept(c, _exact_link, _EXACT) for c in s.conns])


def canonicalize(s: SystemState, memo: dict = None) -> tuple:
    """Hashable key: fresh variables renamed by first use, dead constraints
    dropped, message identities ignored.

    One walk renames each value as it visits it, in first-use order: each
    machine's timer, plant values and configuration; each link's messages
    in buffer order (data, then the two timers); the clock; then the
    constraints linked to the variables met so far, in their masked order
    (`values.order_key` with `mask`), ties broken by their keys.  A
    value's variables not yet met get the next `v{i}` names, in sorted
    order, just before it is renamed.

    Every fresh name comes from `symbolic.fresh_var`, which counts it, so
    a state whose counter is zero has the identity renaming and keeps no
    constraint.  Such a state's key is made of pieces that each machine
    and link keeps in its instance dict, built on first use: a successor
    reuses the pieces of every record it shares with its parent.  The
    pieces are the ones the walk would build, so both ways give one key.

    The path condition comes irredundant (`SystemState.constraints`), so
    two states whose conditions differ only by implied inequalities get
    one key.

    `memo` holds two maps in one dict.  One maps each constraint to its
    sort key and sorted variables.  The other maps a pair of a value (a
    constraint, a timer, a plant value, a message field or the clock) and
    the new names of its variables to its renaming, so a value shared by
    many states is renamed once per naming, and every key that holds it
    shares the one renamed object.  A constraint is never a pair, so the
    two maps cannot collide.  A search passes one memo for its whole life
    and drops it with its state store; without one, a throwaway memo is
    used.
    """
    if not s.fresh_counter:
        return (
            tuple([_kept(m, _machine_piece) for m in s.machines]),
            tuple([_kept(c, _link_piece) for c in s.conns]),
            s.clock,
            (),
            s.ticked,
        )
    if memo is None:
        memo = {}
    names: dict = {}  # fresh variable -> its `v{i}`, in first-use order
    ren, ren_config = _renaming(names, memo)
    machines_key = tuple([_machine_piece(m, ren, ren_config) for m in s.machines])
    conns_key = tuple([_link_piece(c, ren) for c in s.conns])
    clock_key = ren(s.clock)
    kept = _live_slice(s.constraints, set(names), memo) if names else ()
    constraints_key = tuple(sorted([ren(c, vs) for c, (_, vs) in kept], key=ckey_of))
    # Only a symbolic tick sets the fold flag, so concrete keys never split on it.
    return (machines_key, conns_key, clock_key, constraints_key, s.ticked)
