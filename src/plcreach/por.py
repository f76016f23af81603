"""Successor enumeration with an optional partial order reduction.

The reduction picks, per state, a sound subset of enabled transitions:

1. cycle-start transitions when any machine is due (time cannot advance
   then, and starts commute with every other enabled move).  Several
   starts, one per satisfiable set of due machines, hold in disjoint
   worlds (`timed.due_machines`), so each may be taken alone;
2. otherwise the moves of the lowest-numbered machine whose moves are all
   `private`, a flag each rule in `comm` sets where it makes the move:
   moves that touch only that machine's control state, plus, when the
   loaded programs provably never drop a link, deliveries that no rival
   delivery can race and status reads of a link that is up;
3. otherwise the full enabled set: sends are deliberately never singled
   out, because the delivery window starts at the send instant, so
   pruning time steps around them would drop reachable behaviors.

Loop steps are never private, so that every cycle in the reduced graph
contains a fully expanded state.
"""

from __future__ import annotations

from . import comm
from .comm import chainable, machine_moves, with_cfg
from .kmachine import Done, Internal, KConfig
from .model import SystemState, TransitionId, canonicalize
from .timed import (
    RuleCtx,
    env_mte,
    env_tick,
    env_tick_apply,
    mte_concrete,
    start_variants,
    tick_apply,
    tick_concrete,
    tick_symbolic,
)
from .values import copy_with


class ReplayError(Exception):
    pass


# Safety cap on a chain; a run without loop steps stays far below it.
_CHAIN_LIMIT = 512


def _private_run(ctx: RuleCtx, cfg: KConfig) -> tuple:
    """The deterministic run of chainable internal steps from `cfg`.

    Returns `(labels, end configuration)`, memoized in `ctx.runs` by the
    start configuration; a run is cut after `_CHAIN_LIMIT` steps.  Such a
    run touches only the machine's own configuration, so it is walked
    without building system states.  The configurations in between are
    not kept, so that long simulations do not hold them; the end
    configuration's step outcome goes into `ctx.steps`, where
    `machine_moves` reads it.
    """
    run = ctx.runs.get(cfg)
    if run is not None:
        return run
    # Stepping through `comm.step` keeps one name for every step call, the
    # one that tests and perfbench/tracing.py rebind to count them.
    out = ctx.steps.get(cfg)
    if out is None:
        out = comm.step(ctx.table, cfg)
    labels = []
    end = cfg
    while chainable(out) and len(labels) < _CHAIN_LIMIT:
        labels.append((out.label, ()))
        end = out.cfg
        out = comm.step(ctx.table, end)
    ctx.steps[end] = out
    run = ctx.runs[cfg] = (tuple(labels), end)
    return run


def _chain_internal(ctx: RuleCtx, v):
    """Extend a machine move across its deterministic private run.

    Private moves with a single feasible continuation commute with every
    other enabled transition, so the whole run collapses into one edge.
    Stops at branching points, non-private moves, and loop steps, or once
    the chain is longer than `_CHAIN_LIMIT`.  The chain walks the move's
    two halves, the shared state and the machine's configuration: runs of
    internal steps are taken whole from `_private_run`, and
    `machine_moves` is asked with the chain's configuration beside the
    shared state.  One system state is built, at the chain's end.
    """
    if not v.private:
        return (TransitionId(v.cls, v.mid, v.label, v.key), v.state)
    chain = [(v.label, v.key)]
    shared, cfg = v.shared, v.cfg
    while len(chain) <= _CHAIN_LIMIT:
        labels, cfg = _private_run(ctx, cfg)
        chain.extend(labels)
        # Done: the scan is over.  Internal: a loop step, which must stay
        # visible, or a run cut at `_CHAIN_LIMIT`.
        if isinstance(ctx.steps[cfg], (Done, Internal)):
            break
        nxt = machine_moves(ctx, shared, v.mid, cfg)
        if len(nxt) != 1 or not nxt[0].private:
            break
        chain.append((nxt[0].label, nxt[0].key))
        shared, cfg = nxt[0].shared, nxt[0].cfg
    st = with_cfg(shared, v.mid, cfg)
    if len(chain) == 1:
        return (TransitionId(v.cls, v.mid, v.label, v.key), st)
    return (TransitionId("internal", v.mid, "seq", tuple(chain)), st)


def successors(ctx: RuleCtx, s: SystemState, por: bool = None, *, first: bool = False) -> list:
    """Enabled transitions from `s` as (TransitionId, state) pairs, as the
    rules make them, with machine moves chained across private runs.

    `por=None` follows the state's own options; passing True/False
    forces the reduced or the full enumeration.  With `first`, only the
    first non-empty group of the full enumeration is built, in its
    order: the start variants; else the chained moves of the
    lowest-numbered machine that has moves; else the time steps (ticks,
    then envTicks).  `por` is moot then: the reduction never splits a
    group.
    """
    if por is None:
        por = s.options.por
    starts = start_variants(ctx, s)
    if starts and (por or first):
        return starts
    per = []
    for m in s.machines:
        moves = machine_moves(ctx, s, m.mid)
        if moves and (first or (por and all(v.private for v in moves))):
            return [_chain_internal(ctx, v) for v in moves]
        per.append(moves)
    out = list(starts)
    for moves in per:
        out.extend(_chain_internal(ctx, v) for v in moves)
    out.extend((tick_symbolic if s.options.symbolic else tick_concrete)(ctx, s))
    out.extend(env_tick(ctx, s))
    return out


def apply(ctx: RuleCtx, s: SystemState, tid: TransitionId) -> SystemState:
    """Replay one recorded transition.

    A concrete tick or envTick is taken by its duration d whenever
    0 < d <= the maximal time elapse, so a step cut short at a simulation
    horizon replays too.  Every other move is looked up in the full set,
    so that reduced-run traces replay identically.
    """
    if tid.cls in ("tick", "env") and not isinstance(tid.key[0], str):
        st = _elapse(ctx, s, tid.cls, tid.key[0])
        if st is not None:
            return st
    else:
        for t, st in successors(ctx, s, por=False):
            if t == tid:
                return st
    raise ReplayError(f"transition {tid.pretty()} not enabled")


def _elapse(ctx: RuleCtx, s: SystemState, cls: str, d):
    cap = env_mte(s) if cls == "env" else mte_concrete(s)
    if cap is None or not 0 < d <= cap:
        return None
    return (env_tick_apply if cls == "env" else tick_apply)(ctx, s, d)


def _apply_if_enabled(ctx: RuleCtx, s: SystemState, tid: TransitionId):
    if tid.cls == "tick" and isinstance(tid.key[0], str):
        # A fresh duration is named anew in every state, so a symbolic tick
        # stands for the state's own one; there is at most one.
        return next((st for _, st in tick_symbolic(ctx, s)), None)
    try:
        return apply(ctx, s, tid)
    except ReplayError:
        return None


def check_independence(ctx: RuleCtx, s: SystemState, t1: TransitionId, t2: TransitionId):
    """Test whether two transitions commute at `s`.

    Returns None when the pair is not co-enabled (vacuous), False when
    one order disables the other or the two orders land in different
    states, True when both orders exist and converge.  Concrete time
    steps are compared at a fixed duration: the recorded jump must stay
    available after the other transition.  A symbolic tick is each
    state's own tick by a fresh duration.  The two orders are compared
    with the tick-fold flag cleared: it only bars a second tick in a row,
    so it ends set after move-then-tick and clear after tick-then-move.
    """
    if t1 == t2:
        return None
    a = _apply_if_enabled(ctx, s, t1)
    b = _apply_if_enabled(ctx, s, t2)
    if a is None or b is None:
        return None
    ab = _apply_if_enabled(ctx, a, t2)
    ba = _apply_if_enabled(ctx, b, t1)
    if ab is None or ba is None:
        return False
    return canonicalize(copy_with(ab, ticked=False)) == canonicalize(copy_with(ba, ticked=False))
