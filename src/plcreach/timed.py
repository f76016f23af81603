"""Time passage and scan-boundary rules.

Time advances in three ways:
  * tick: the scan-side clock moves forward, counting down scan timers,
    message delivery windows, and any open annotation deadline.  Concrete
    runs always jump by the maximal time elapse; symbolic runs introduce a
    fresh positive duration bounded by the same quantities.
  * envTick (clock-separated runs only): the physical side jumps by the
    smallest pending environment countdown, evaluating change laws and
    advancing the global clock in concrete steps.
  * start: every due controller publishes its outputs, refreshes its
    inputs, and reloads its program list for the next scan.

Without clock separation, tick also carries the physical side (change laws
and global clock).  With it, tick leaves them to envTick, which keeps
change-law evaluation concrete even in symbolic runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .kmachine import load_programs
from .model import (
    InputSpec,
    PLCMachine,
    SystemState,
    actuate,
    apply_flow,
    propagate_pins,
    sense,
)
from .solver import SmtCheck
from .st.ast import AssertTimeAnn
from .st.elaborate import PouTable
from .symbolic import concrete_or_none, feasible, fresh_var
from .values import (
    INF,
    Poly,
    as_poly,
    bor,
    cmp_eq,
    cmp_le,
    cmp_lt,
    monus,
    t_add,
    t_sub,
)


@dataclass
class RuleCtx:
    """Shared per-search context: the program table, the solver and the
    memo tables of the machine-local semantics.

    `steps` maps a `KConfig` to its `kmachine.step` outcome (filled by
    `comm.machine_moves` and `por._private_run`).  `runs` maps the first
    `KConfig` of a deterministic run of chainable internal steps to the
    run's `(labels, end KConfig)` (filled by `por._private_run`).
    Both hold pure functions of `(table, cfg)`, so they stay valid for as
    long as the context lives; `Scenario.context()` makes a new, empty
    context for each search.  A fresh context therefore starts cold, which
    the benchmark's determinism guard relies on: it checks that the number
    of `step` calls repeats exactly from one run of a query to the next.
    """

    table: PouTable
    checker: SmtCheck
    # True when the loaded programs provably never drop a link or retune
    # its delays, and every link has a positive minimum delay.  Gates the
    # reduction's use of receive and status-read moves as private.
    comm_ample: bool = False
    steps: dict = field(default_factory=dict)
    runs: dict = field(default_factory=dict)


# -- maximal time elapse ----------------------------------------------------


def elapsed_in_cycle(m: PLCMachine):
    """Time since this machine's scan started."""
    return t_sub(m.cycle_time, m.timer)


def head_deadline(m: PLCMachine):
    """Time left before an open head annotation's window closes, or None."""
    head = m.cfg.head
    if not isinstance(head, AssertTimeAnn):
        return None
    # window closes when elapsed reaches hi: remaining = hi - elapsed.
    return t_sub(head.hi, elapsed_in_cycle(m))


def mte_candidates(s: SystemState):
    """Everything a time step must not overrun.

    Returns (concrete, symbolic): a list of Fractions and a list of Polys.
    A concrete candidate that is already negative counts as zero.
    """
    concrete: list = []
    symbolic: list = []

    def put(v):
        c = concrete_or_none(v)
        if c is not None:
            concrete.append(max(c, Fraction(0)))
        else:
            symbolic.append(as_poly(v))

    for m in s.machines:
        put(m.timer)
        dl = head_deadline(m)
        if dl is not None:
            put(dl)
    for conn in s.conns:
        for msg in conn.buffer:
            put(msg.max_timer)
    return concrete, symbolic


def mte_concrete(s: SystemState):
    concrete, symbolic = mte_candidates(s)
    if symbolic:
        raise ValueError("mte is symbolic; use tick_symbolic")
    return min(concrete) if concrete else INF


# -- tick -------------------------------------------------------------------


def tick_apply(s: SystemState, d) -> SystemState:
    """Advance scan-side time by d; physical side too unless separated."""
    sep = s.options.clock_sep
    machines = []
    for m in s.machines:
        m2 = replace(m, timer=t_sub(m.timer, d))
        if not sep:
            m2 = apply_flow(m2, d)
        machines.append(m2)
    conns = tuple(
        replace(
            c,
            buffer=tuple(
                replace(
                    msg,
                    min_timer=monus(msg.min_timer, d),
                    max_timer=t_sub(msg.max_timer, d),
                )
                for msg in c.buffer
            ),
        )
        for c in s.conns
    )
    clock = s.clock if sep else t_add(s.clock, d)
    return replace(s, machines=tuple(machines), conns=conns, clock=clock, ticked=True)


def tick_menu(s: SystemState) -> list:
    """Concrete durations worth exploring from this state.

    Arbitrary durations would make the concrete graph infinite, so jumps
    are limited to the maximal time elapse plus every event boundary on
    the way there: timer expiries, message window edges, and annotation
    window edges.
    """
    cap = mte_concrete(s)
    if cap == INF or cap <= 0:
        return []
    boundaries = {cap}

    def put(v):
        c = concrete_or_none(v)
        if c is not None and 0 < c <= cap:
            boundaries.add(c)

    for m in s.machines:
        put(m.timer)
        head = m.cfg.head
        if isinstance(head, AssertTimeAnn):
            e = elapsed_in_cycle(m)
            put(t_sub(head.lo, e))
            put(t_sub(head.hi, e))
    for conn in s.conns:
        for msg in conn.buffer:
            put(msg.min_timer)
            put(msg.max_timer)
    return sorted(boundaries)


def tick_concrete(s: SystemState) -> list:
    """All menu jumps as (duration, state) pairs; empty when time is stopped."""
    return [(d, tick_apply(s, d)) for d in tick_menu(s)]


def tick_symbolic(ctx: RuleCtx, s: SystemState):
    """One fresh-duration tick; chained ticks are folded into one."""
    if s.ticked:
        return None
    concrete, symbolic = mte_candidates(s)
    if concrete and min(concrete) <= 0:
        return None
    s2, dvar = fresh_var(s, "d")
    constraints = [cmp_lt(Poly.const(0), dvar)]
    if concrete:
        constraints.append(cmp_le(dvar, Poly.const(min(concrete))))
    for b in symbolic:
        constraints.append(cmp_le(dvar, b))
    if not feasible(ctx.checker, s2, *constraints, cls="tick"):
        return None
    s3 = s2.add_constraints(*constraints)
    return dvar, tick_apply(s3, dvar)


# -- environment tick -------------------------------------------------------


def env_tick(s: SystemState):
    """Jump the physical side to the next environment deadline."""
    if not s.options.clock_sep or not s.machines:
        return None
    d = min(m.env_timer for m in s.machines)
    if d <= 0:
        return None
    machines = tuple(
        apply_flow(replace(m, env_timer=m.env_timer - d), d) for m in s.machines
    )
    return d, replace(
        s, machines=machines, clock=t_add(s.clock, d), ticked=False
    )


# -- scan start -------------------------------------------------------------


def _timer_due(ctx: RuleCtx, s: SystemState, m: PLCMachine):
    c = concrete_or_none(m.timer)
    if c is not None:
        return c == 0, True
    eq = cmp_eq(as_poly(m.timer), Poly.const(0))
    return feasible(ctx.checker, s, eq, cls="start"), eq


def due_machines(ctx: RuleCtx, s: SystemState):
    """Machines ready to begin a scan, plus the constraints that pin it.

    A machine is due when its scan finished, its timer can be zero now, and
    (clock-separated runs) the environment countdown hit zero too.
    """
    due = []
    eqs = []
    for m in s.machines:
        if not m.cfg.is_cycle_complete():
            continue
        if s.options.clock_sep and m.env_timer != 0:
            continue
        ok, eq = _timer_due(ctx, s, m)
        if not ok:
            continue
        due.append(m)
        if eq is not True:
            eqs.append(eq)
    if due and eqs:
        if not feasible(ctx.checker, s, *eqs, cls="start"):
            # Joint start impossible; let the first machine go alone.
            first = due[0]
            _, eq = _timer_due(ctx, s, first)
            return [first], [] if eq is True else [eq]
    return due, eqs


def _injection_plans(m: PLCMachine):
    """Per input spec: list of (value-or-None, needs_fresh, spec)."""
    fixed = []
    enumerated = []
    for spec in m.inputs:
        if spec.kind == "script":
            idx = min(m.cycle_index, len(spec.values) - 1)
            fixed.append((spec, spec.values[idx]))
        elif spec.kind == "enumerate":
            enumerated.append(spec)
        elif spec.kind == "free":
            fixed.append((spec, None))  # fresh var at apply time
        else:
            raise ValueError(f"unknown input kind {spec.kind}")
    return fixed, enumerated


def start_variants(ctx: RuleCtx, s: SystemState):
    """All ways the due machines can begin their next scan.

    Enumerated inputs branch into one variant per value combination; the
    variant's choice tuple records (machine, program, variable, value).
    """
    due, eqs = due_machines(ctx, s)
    if not due:
        return []
    due_ids = [m.mid for m in due]

    enum_axes = []  # (mid, spec)
    for m in due:
        _, enumerated = _injection_plans(m)
        for spec in enumerated:
            enum_axes.append((m.mid, spec))

    combos = itertools.product(*(spec.values for _, spec in enum_axes)) if enum_axes else [()]
    variants = []
    for combo in combos:
        chosen = {
            (mid, spec.prog, spec.var): value
            for ((mid, spec), value) in zip(enum_axes, combo)
        }
        choice = tuple(sorted((k[0], k[1], k[2], v) for k, v in chosen.items()))
        variants.append((choice, _apply_start(ctx, s, due_ids, eqs, chosen)))
    return variants


def _apply_start(ctx: RuleCtx, s: SystemState, due_ids, eqs, chosen) -> SystemState:
    if eqs:
        # Pinning the jump length here keeps the sensed values concrete,
        # so guards over them branch on real numbers instead of forking.
        s = propagate_pins(s.add_constraints(*eqs))
    for mid in due_ids:
        m = s.machine(mid)
        m = actuate(m)
        m = sense(m)
        writes = []
        fixed, enumerated = _injection_plans(m)
        for spec, value in fixed:
            if value is None:  # free input
                s, var = fresh_var(s, "u")
                value = var
                s = s.add_constraints(*_domain_of(spec, var))
            env = dict(m.cfg.prog_env(spec.prog))
            writes.append((env[spec.var], value))
        for spec in enumerated:
            value = chosen[(mid, spec.prog, spec.var)]
            env = dict(m.cfg.prog_env(spec.prog))
            writes.append((env[spec.var], value))
        cfg = m.cfg.write_many(writes) if writes else m.cfg
        cfg = load_programs(ctx.table, cfg)
        m = replace(
            m,
            cfg=cfg,
            timer=m.cycle_time,
            env_timer=m.cycle_time if s.options.clock_sep else m.env_timer,
            cycle_index=m.cycle_index + 1,
        )
        s = s.with_machine(m)
    return replace(s, ticked=False)


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
