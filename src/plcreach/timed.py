"""Time passage and scan-boundary rules.

Time advances in three ways:
  * tick: the scan-side clock moves forward, counting down scan timers,
    message delivery windows, and any open annotation deadline.  Concrete
    runs explore a menu of jumps: the maximal time elapse and every event
    boundary before it; symbolic runs introduce a fresh positive duration
    bounded by the same quantities.
  * envTick (clock-separated runs only): the physical side jumps by the
    smallest pending environment countdown, evaluating change laws and
    advancing the global clock in concrete steps.
  * start: one set of due controllers (`due_machines`) publishes its
    outputs, refreshes its inputs, and reloads its programs.  The same
    rule, `start_scans`, makes the first scan of a machine the scenario
    marks `preload`, at the initial state.  It runs from the machine's
    `StartPlan`, compiled once from its static layout when the machine is
    built (`compile_start`).

Without clock separation, tick also carries the physical side (change laws
and global clock).  With it, tick leaves them to envTick, which keeps
change-law evaluation concrete even in symbolic runs.

Each rule (`start_variants`, `tick_concrete`, `tick_symbolic`, `env_tick`)
returns its transitions as a list of `(TransitionId, state)` pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .kmachine import KConfig, load_programs
from .model import (InputSpec, ModelError, PLCMachine, SystemState, TransitionId, apply_flow,
                    propagate_pins)
from .solver import SmtCheck
from .st.ast import AssertTimeAnn
from .st.elaborate import PouTable
from .symbolic import concrete_or_none, feasible, fresh_var
from .values import (
    INF,
    Poly,
    as_poly,
    band,
    bor,
    cmp_eq,
    cmp_le,
    cmp_lt,
    conjuncts,
    copy_with,
    irredundant,
    monus,
    vadd,
    vsub,
)


@dataclass
class RuleCtx:
    """Shared per-search context: the program table, the solver and the
    memo tables of the successor path.  What never changes for a machine
    (its programs, their environments, its `StartPlan`) is not here: it is
    static layout on the `PLCMachine`.

    `steps` maps a `KConfig` to its `kmachine.step` outcome (filled by
    `comm.machine_moves` and `por._private_run`).  `runs` maps the first
    `KConfig` of a deterministic run of chainable internal steps to the
    run's `(labels, end KConfig)` (filled by `por._private_run`).  Both
    hold pure functions of `(table, cfg)`.  `flows` maps a machine's
    change laws, plant state and a time step to the plant state after
    `apply_flow` (filled by `_flowed`): a pure function of that key alone,
    which also holds the class of every value, because `True == 1`.  A
    number's class follows from its value (an int exactly when integral,
    see `values.rat`), so equal plant states share one entry.  `resumed`
    maps a `KConfig` suspended on a communication call, an answer's class
    and the answer to the configuration `resume_comm` makes of them
    (filled by `comm._answer`), so the same answer gives the same object,
    whose hash is kept: a pure function of that key and the table, since
    the call site is the configuration's step outcome.  The class is part
    of the key because `True == 1`.

    The other four tables serve concrete-mode states without fresh
    variables (`fresh_counter == 0`, the test `model.canonicalize` uses
    for its kept pieces) only; `por.successors` and `start_variants` fill
    and read them only for such states, so a symbolic search leaves them
    empty.  Such a state holds concrete values only, so every guard is
    decided without the solver and no step branches.

    `moves` holds each machine's chained moves (`comm.machine_moves`
    across `por._chain_internal`), as `(private, deltas)`: whether every
    unchained move is private, and per chain its delta `(tid, cfg, conns,
    msg_seq, constraints)`, the transition id, the machine's end
    `KConfig`, and the links, `msg_seq` and path condition it left, each
    None when the chain left it unchanged (the path condition of such a
    state always is).  The first-level key
    is `(mid, cfg, options)`: a chain reads the machine's configuration
    and, through its rules, the options and `comm_ample`.  A chain that
    reaches a communication, `assertTime` or `setDelay` step may read
    the shared state too, and the entry then records the widest thing
    the chains computed so far read (`por._reads`), narrowest first:
    whether each link exists and is up (`isConnected`; `connectRequest`
    to a missing link or one that is up; a send to a missing link or one
    that is down; `disconnect` of a missing link: each leaves the links
    unchanged); the exact links and `msg_seq`; those and the machine's
    timer and cycle time, for `assertTime`.  A
    chain that stops before a step whose rule never makes a private move
    (a send, a `disconnect`, `assertTime`, `setDelay`) reads nothing of
    it.  The groups then sit in a second
    table under that entry, keyed by what its level reads alone (the
    links as an int of `links`), so the configuration and the options
    are not hashed again.  The entry widens when a later computation reads more, and its narrower groups
    are dropped.  The soundness argument: the rules are deterministic in
    what they read, so two states that agree on what a computation read
    take the same steps, read the same things and get the same moves;
    an entry holds for every state that agrees with it on its key.  The
    exact links (`model.exact_links`) are in buffer order, with each
    message's `seq` (which message equality ignores, yet a receive's id
    and a send's `msg_seq` carry) and the class of its data.  The rest of
    a successor is the state's own, with the fold flag cleared.

    `ticks` maps each machine's timer and the time left until the open
    and the close of its open `assertTime` window (`window_left`), the
    links id and the options to the tick menu: per jump, its transition
    id, the timers and the links after it.  That is all `limits` and
    `tick_apply` read apart from the plant and the clock, which each hit
    still takes through `_flowed` and `vadd` (`tick_with`).

    `links` interns the exact links of each state into an int, with each
    link's pair and validity beside it (`por._links`), so that the links
    are hashed once per state.  `started` maps a machine's plan (by
    identity: the entry holds the plan, so its id stays its own),
    configuration, plant state with the class of every value, cycle
    index and the class and value of each enumerated input it is fed to
    the configuration and plant state it begins its next scan with
    (`start_scans`); a machine with a free input is not kept.  It is
    None until `explorer.search` runs with the context: a search meets
    one start again on every interleaving that leads to it, while a
    simulation meets each start once and would only fill the table.

    `moves` and `started` key the configuration by `KConfig` equality,
    so their `KConfig` part merges `1` and `True` in a store exactly as
    `steps` does; the links part of `moves` and `ticks` keeps them apart.

    All eight tables stay valid for as long as the context lives.
    `Scenario.context()` makes a new, empty context for each search, so a
    fresh context starts cold, which the benchmark's determinism guard
    relies on: it checks that the number of `step` calls repeats exactly
    from one run of a query to the next.

    `por.successors` builds every successor it recalls from `moves` and
    `ticks`, save a tick past a search's bound, which it never builds.
    A bounded enumeration hands every time step, memoised or not, pinned
    inside the bound, or as None when it ends past it.
    """

    table: PouTable
    checker: SmtCheck
    # True when the loaded programs provably never drop a link or retune
    # its delays, and every link has a positive minimum delay.  Gates the
    # reduction's use of receive and status-read moves as private.
    comm_ample: bool = False
    steps: dict = field(default_factory=dict)
    runs: dict = field(default_factory=dict)
    flows: dict = field(default_factory=dict)
    resumed: dict = field(default_factory=dict)
    moves: dict = field(default_factory=dict)
    ticks: dict = field(default_factory=dict)
    links: dict = field(default_factory=dict)
    started: dict = None


# -- time limits ------------------------------------------------------------


def elapsed_in_cycle(m: PLCMachine):
    """Time since this machine's scan started."""
    return vsub(m.cycle_time, m.timer)


def window_left(m: PLCMachine):
    """The time left until the open and the close of `m`'s open
    `assertTime` window, or None when it has none."""
    head = m.cfg.head
    if isinstance(head, AssertTimeAnn):
        e = elapsed_in_cycle(m)
        return (vsub(head.lo, e), vsub(head.hi, e))
    return None


def limits(s: SystemState) -> tuple:
    """The remaining times a time step in `s` is measured against.

    Returns `(caps, opens)`.  A step must not overrun any cap: a scan
    timer, the close of an open `assertTime` window, a message's latest
    delivery.  The opens are where something becomes enabled on the way:
    that window's open, a message's earliest delivery.  Each entry is a
    number or a Poly; a concrete one may be zero or negative.
    """
    caps = []
    opens = []
    for m in s.machines:
        caps.append(m.timer)
        window = window_left(m)
        if window is not None:
            opens.append(window[0])
            caps.append(window[1])
    for conn in s.conns:
        for msg in conn.buffer:
            opens.append(msg.min_timer)
            caps.append(msg.max_timer)
    return caps, opens


def _least_cap(caps) -> tuple:
    """`(least concrete cap or INF, the symbolic caps)`."""
    least = INF
    symbolic = []
    for v in caps:
        c = concrete_or_none(v)
        if c is None:
            symbolic.append(v)
        elif c < least:
            least = c
    return least, symbolic


def mte_concrete(s: SystemState):
    """The maximal time elapse: the least cap, INF without caps, and None
    when a cap is symbolic (no fixed duration is then known to be safe).
    At most zero means time cannot pass."""
    least, symbolic = _least_cap(limits(s)[0])
    return None if symbolic else least


# -- tick -------------------------------------------------------------------


def _flowed(ctx: RuleCtx, m: PLCMachine, d) -> tuple:
    """`m`'s plant state after `d` time units, memoised in `ctx.flows`."""
    if not m.flow:
        return m.state
    key = (m.flow, m.state, tuple([v.__class__ for _, v in m.state]), d, d.__class__)
    state = ctx.flows.get(key)
    if state is None:
        state = ctx.flows[key] = apply_flow(m, d).state
    return state


def tick_apply(ctx: RuleCtx, s: SystemState, d) -> SystemState:
    """Advance scan-side time by d; physical side too unless separated."""
    timers = [vsub(m.timer, d) for m in s.machines]
    conns = tuple(
        copy_with(
            c,
            buffer=tuple(
                copy_with(
                    msg,
                    min_timer=monus(msg.min_timer, d),
                    max_timer=vsub(msg.max_timer, d),
                )
                for msg in c.buffer
            ),
        )
        for c in s.conns
    )
    return tick_with(ctx, s, d, timers, conns)


def tick_with(ctx: RuleCtx, s: SystemState, d, timers, conns) -> SystemState:
    """`s` after a tick by `d` that leaves the machines' timers at `timers`
    and the links at `conns`: the plant flows too (through `ctx.flows`)
    and the clock moves, unless the clocks are separated."""
    sep = s.options.clock_sep
    machines = tuple([
        copy_with(m, timer=t, state=m.state if sep else _flowed(ctx, m, d))
        for m, t in zip(s.machines, timers)
    ])
    clock = s.clock if sep else vadd(s.clock, d)
    return copy_with(s, machines=machines, conns=conns, clock=clock)


def tick_menu(s: SystemState) -> list:
    """Concrete durations worth exploring from this state.

    Arbitrary durations would make the concrete graph infinite, so jumps
    are limited to the maximal time elapse plus every opening on the way
    there.  Every cap is at least the maximal time elapse, so no other
    cap lies before it.
    """
    caps, opens = limits(s)
    cap, symbolic = _least_cap(caps)
    if symbolic or cap == INF or cap <= 0:
        return []
    menu = {cap}
    for v in opens:
        c = concrete_or_none(v)
        if c is not None and 0 < c < cap:
            menu.add(c)
    return sorted(menu)


def tick_concrete(ctx: RuleCtx, s: SystemState) -> list:
    """One tick per menu jump, keyed by its duration; none when time is stopped."""
    return [(TransitionId("tick", "", "tick", (d,)), tick_apply(ctx, s, d)) for d in tick_menu(s)]


def tick_symbolic(ctx: RuleCtx, s: SystemState) -> list:
    """One tick by a fresh duration, keyed by its name; chained ticks fold into one.

    The result is marked `ticked`, so that no second tick follows it
    before some other move: two jumps in a row equal one longer jump.
    """
    if s.ticked:
        return []
    least, symbolic = _least_cap(limits(s)[0])
    if least <= 0:
        return []
    s2, dvar = fresh_var(s, "d")
    constraints = [cmp_lt(Poly.const(0), dvar)]
    if least != INF:
        constraints.append(cmp_le(dvar, Poly.const(least)))
    for b in symbolic:
        constraints.append(cmp_le(dvar, b))
    s3 = feasible(ctx.checker, s2, *constraints, cls="tick")
    if s3 is False:
        return []
    tid = TransitionId("tick", "", "tick", tuple(dvar.variables()))  # the fresh name
    return [(tid, tick_apply(ctx, copy_with(s3, ticked=True), dvar))]


# -- environment tick -------------------------------------------------------


def env_mte(s: SystemState):
    """Time to the next environment deadline; None without clock separation."""
    if not s.options.clock_sep or not s.machines:
        return None
    return min(m.env_timer for m in s.machines)


def env_tick_apply(ctx: RuleCtx, s: SystemState, d) -> SystemState:
    """Advance the physical side and the global clock by d."""
    machines = tuple(
        copy_with(m, env_timer=vsub(m.env_timer, d), state=_flowed(ctx, m, d)) for m in s.machines
    )
    return copy_with(s, machines=machines, clock=vadd(s.clock, d), ticked=False)


def env_tick(ctx: RuleCtx, s: SystemState) -> list:
    """One jump of the physical side to the next environment deadline, if any."""
    d = env_mte(s)
    if d is None or d <= 0:
        return []
    return [(TransitionId("env", "", "envTick", (d,)), env_tick_apply(ctx, s, d))]


# -- scan start -------------------------------------------------------------


def due_machines(ctx: RuleCtx, s: SystemState) -> list:
    """One `(due, pinned)` pair per satisfiable set of due machines, larger
    sets first: the ready machines (scan finished, and the environment
    countdown at zero in clock-separated runs) whose timers are zero while
    every other ready timer is positive, and `s` with that conjoined (`s`
    itself when no ready timer is symbolic).  A concretely zero timer is in
    every set and a positive one in none; timers with one zero atom (equal
    timers) are zero in the same worlds, so their machines go together.
    """
    # `cmp_eq` decides a concrete timer: True at zero, else False
    ready = [(m, cmp_eq(m.timer, 0)) for m in s.machines
             if m.cfg.is_cycle_complete() and not (s.options.clock_sep and m.env_timer != 0)]
    zero = [m for m, eq in ready if eq is True]
    timers = {eq: m.timer for m, eq in ready if not isinstance(eq, bool)}
    if not timers:
        return [(zero, s)] if zero else []
    ways = []
    for n in range(len(timers), -1 if zero else 0, -1):
        for ins in itertools.combinations(timers, n):
            pinned = feasible(ctx.checker, s, *ins,
                              *(cmp_lt(0, t) for eq, t in timers.items() if eq not in ins),
                              cls="start")
            if pinned is not False:
                ways.append(([m for m, eq in ready if eq is True or eq in ins], pinned))
    return ways


def start_variants(ctx: RuleCtx, s: SystemState) -> list:
    """One start per set of due machines and way they can begin their next
    scan; a state with several sets names each start's machines.

    Enumerated inputs branch into one variant per value combination; the
    start's key records each choice as (machine, program, variable, value).
    """
    ways = due_machines(ctx, s)
    memo = None if s.fresh_counter or s.options.symbolic else ctx.started
    variants = []
    for due, pinned in ways:
        if pinned is not s:
            # Pinning the jump length here keeps the sensed values concrete,
            # so guards over them branch on real numbers instead of forking.
            pinned = propagate_pins(pinned, ctx.checker.pruned)
        due_ids = [m.mid for m in due]
        who = ",".join(due_ids) if len(ways) > 1 else ""
        axes = [(m.mid, spec) for m in due for spec in m.inputs if spec.kind == "enumerate"]
        for combo in itertools.product(*(spec.values for _, spec in axes)):
            chosen = dict(zip(axes, combo))
            tid = TransitionId("start", who, "start", tuple(sorted(
                (mid, spec.prog, spec.var, v) for (mid, spec), v in chosen.items())))
            variants.append((tid, start_scans(pinned, due_ids, chosen, memo)))
    return variants


class StartPlan(NamedTuple):
    """A machine's scan start worked out once, from its static layout (see
    `compile_start`).  Locations index `KConfig.store`; plant slots index
    the machine's `state`."""

    publish: tuple  # ((plant slot, loc), ...): published outputs
    sense: tuple  # ((loc, plant slot), ...): sensed inputs
    feeds: tuple  # ((loc, InputSpec), ...)
    k: tuple  # the loaded program bodies, as `load_programs` leaves them
    env: tuple
    current_prog: str


def compile_start(table: PouTable, programs: tuple, state: tuple, inputs: tuple) -> StartPlan:
    """The start plan of a machine with `programs` ((name, env), ...), the
    plant variables of `state`, in slot order, and the input specs
    `inputs`.  Each program's declared outputs publish into the same-named
    plant variables, the last program winning; its declared inputs sense
    them after that; every input spec feeds its variable."""
    slot = {nm: i for i, (nm, _) in enumerate(state)}
    envs = {p: (table.get(p), dict(env)) for p, env in programs}
    published = {slot[d.name]: env[d.name]
                 for pou, env in envs.values() for d in pou.outputs if d.name in slot}
    loaded = load_programs(table, programs, KConfig())
    return StartPlan(
        publish=tuple(published.items()),
        sense=tuple((env[d.name], slot[d.name])
                    for pou, env in envs.values() for d in pou.inputs if d.name in slot),
        feeds=tuple((envs[spec.prog][1][spec.var], spec) for spec in inputs),
        k=loaded.k,
        env=loaded.env,
        current_prog=loaded.current_prog,
    )


def start_scans(s: SystemState, mids, chosen, memo: dict = None) -> SystemState:
    """Begin the next scan of each machine in `mids`: the one start rule.

    Runs each machine's `plan`: the published outputs go into the plant,
    the sensed inputs and every input spec's value into the store, where a
    spec feeds the script's value, the one `chosen` maps `(mid, spec)` to,
    or a fresh variable over a free input's domain (over truth values, the
    atom that the 0/1 variable is 1).  Then the program bodies are queued
    and the timers reset.

    `memo` (`RuleCtx.started`) keeps the configuration and plant state
    that a machine without free inputs begins its scan with (see
    `RuleCtx`).
    """
    machines = list(s.machines)
    order = [x.mid for x in machines]
    for mid in mids:
        m = s.machine(mid)
        key = got = None
        if memo is not None:
            fed = [chosen[(mid, spec)] for _, spec in m.plan.feeds if spec.kind == "enumerate"]
            key = (id(m.plan), m.cfg, m.state, tuple([v.__class__ for _, v in m.state]),
                   m.cycle_index, tuple([(v.__class__, v) for v in fed]))
            got = memo.get(key)
        if got is None:
            begun, cfg, state = _begun(s, m, chosen)
            # a free input names a fresh variable, and is not kept
            if key is not None and begun is s:
                memo[key] = (m.plan, cfg, state)
            s = begun
        else:
            _, cfg, state = got
        machines[order.index(mid)] = copy_with(
            m,
            cfg=cfg,
            state=state,
            timer=m.cycle_time,
            env_timer=m.cycle_time if s.options.clock_sep else m.env_timer,
            cycle_index=m.cycle_index + 1,
        )
    return copy_with(s, machines=tuple(machines), ticked=False)


def _begun(s: SystemState, m: PLCMachine, chosen) -> tuple:
    """`(s, cfg, state)`: the configuration and plant state `m` begins its
    next scan with, and `s` with the fresh variables of its free inputs."""
    cfg = m.cfg
    plan = m.plan
    state = m.state
    if plan.publish:
        state = list(state)
        for i, loc in plan.publish:
            state[i] = (state[i][0], cfg.read(loc))
        state = tuple(state)
    writes = [(loc, state[i][1]) for loc, i in plan.sense]
    for loc, spec in plan.feeds:
        if spec.kind == "script":
            value = spec.values[min(m.cycle_index, len(spec.values) - 1)]
        elif spec.kind == "enumerate":
            value = chosen[(m.mid, spec)]
        else:  # free: a fresh variable over the input's domain
            s, value = fresh_var(s, "u")
            cond = irredundant(band(*s.constraints, *_domain_of(spec, value)))
            if cond is False:
                raise ModelError("constraint set collapsed to false")
            s = copy_with(s, constraints=conjuncts(cond))
            if spec.values and all(isinstance(v, bool) for v in spec.values):
                # a truth value: the variable is 0 or 1, and the
                # input is the atom that it is 1
                value = cmp_eq(value, 1)
        writes.append((loc, value))
    cfg = copy_with(cfg.write_many(writes), k=plan.k, env=plan.env, current_prog=plan.current_prog)
    return s, cfg, state


def _domain_of(spec: InputSpec, var: Poly):
    if spec.values:
        return [bor(*(cmp_eq(var, as_poly(v)) for v in spec.values))]
    out = []
    if spec.lo is not None:
        out.append(cmp_le(Poly.const(spec.lo), var))
    if spec.hi is not None:
        out.append(cmp_le(var, Poly.const(spec.hi)))
    return out


# -- diagnostics ------------------------------------------------------------


def diagnose_stuck(s: SystemState) -> list:
    """Human-readable reasons why a state without successors is stuck."""
    notes = []
    for m in s.machines:
        t = concrete_or_none(m.timer)
        if not m.cfg.is_cycle_complete() and t == 0:
            notes.append(f"{m.mid}: scan overran its cycle time")
        head = m.cfg.head
        if isinstance(head, AssertTimeAnn):
            e = concrete_or_none(elapsed_in_cycle(m))
            if e is not None and e > head.hi:
                notes.append(f"{m.mid}: time window ({head.lo},{head.hi}) missed")
            elif e is not None and e < head.lo:
                notes.append(f"{m.mid}: waiting for time window ({head.lo},{head.hi})")
    for c in s.conns:
        for msg in c.buffer:
            mx = concrete_or_none(msg.max_timer)
            if mx == 0:
                notes.append(
                    f"message {msg.sender}->{msg.receiver} expired undelivered"
                )
    return notes
