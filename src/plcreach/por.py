"""Successor enumeration with an optional partial order reduction.

The reduction picks, per state, a sound subset of enabled transitions:

1. cycle-start transitions when any machine is due (time cannot advance
   then, and starts commute with every other enabled move);
2. otherwise the private moves of the lowest-numbered machine that has
   any: moves that touch only that machine's control state, plus, when
   the loaded programs provably never drop a link, deliveries that no
   rival delivery can race and status reads of a link that is up;
3. otherwise the full enabled set: sends are deliberately never singled
   out, because the delivery window starts at the send instant, so
   pruning time steps around them would drop reachable behaviors.

Loop back-edges disqualify a machine's moves from case 2 so that every
cycle in the reduced graph contains a fully expanded state.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import comm
from .comm import machine_moves, with_cfg
from .kmachine import Done, Internal, KConfig
from .model import SystemState, canonicalize
from .timed import (
    RuleCtx,
    env_tick,
    mte_concrete,
    start_variants,
    tick_apply,
    tick_concrete,
    tick_symbolic,
)


@dataclass(frozen=True)
class TransitionId:
    """Replayable identity of one transition out of a given state."""

    cls: str  # "start" | "tick" | "env" | "internal" | "comm"
    mid: str  # owning machine, "" for system-wide moves
    label: str
    key: tuple = ()

    def pretty(self) -> str:
        who = f"({self.mid})" if self.mid else ""
        extra = ""
        if self.key:
            extra = "[" + ",".join(str(k) for k in self.key) + "]"
        return f"{self.label}{who}{extra}"


class ReplayError(Exception):
    pass


def _start_moves(ctx: RuleCtx, s: SystemState) -> list:
    return [
        (TransitionId("start", "", "start", tuple(choice)), st)
        for choice, st in start_variants(ctx, s)
    ]


def _tick_moves(ctx: RuleCtx, s: SystemState) -> list:
    if s.options.symbolic:
        r = tick_symbolic(ctx, s)
        if r is None:
            return []
        dvar, st = r
        name = sorted(dvar.variables())[0]
        return [(TransitionId("tick", "", "tick", (name,)), st)]
    return [
        (TransitionId("tick", "", "tick", (d,)), st) for d, st in tick_concrete(s)
    ]


def _env_moves(s: SystemState) -> list:
    r = env_tick(s)
    if r is None:
        return []
    d, st = r
    return [(TransitionId("env", "", "envTick", (d,)), st)]


# Moves whose enabledness tracks elapsed time (or may recur forever) must
# stay visible to every interleaving.
_NO_CHAIN = {"while", "assertTime"}

# Safety cap on a chain; a run without loop steps stays far below it.
_CHAIN_LIMIT = 512


def _private(ctx: RuleCtx, v) -> bool:
    """Does this move commute with time and with every other machine?

    Internal moves qualify outright.  With the static link guarantees in
    force (`ctx.comm_ample`), so do deliveries that no rival delivery can
    race (the move's own flag) and status reads of a link that is up:
    nothing co-enabled writes link validity then, and time passage never
    does.  Sends never qualify: the delivery window starts at the send
    instant, so reordering a send against a time step is observable.
    """
    if v.cls == "internal":
        return v.label not in _NO_CHAIN
    if not ctx.comm_ample:
        return False
    if v.label == "rcvData":
        return v.ample_ok
    return v.label == "conCheck" and v.key == (True,)


def _ample_eligible(ctx: RuleCtx, moves: list) -> bool:
    return bool(moves) and all(_private(ctx, v) for v in moves)


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
    while (
        isinstance(out, Internal)
        and out.label not in _NO_CHAIN
        and len(labels) < _CHAIN_LIMIT
    ):
        labels.append((out.label, ()))
        end = out.cfg
        out = comm.step(ctx.table, end)
    ctx.steps[end] = out
    run = ctx.runs[cfg] = (tuple(labels), end)
    return run


def _chain_internal(ctx: RuleCtx, mid: str, v):
    """Extend a machine move across its deterministic private run.

    Private moves with a single feasible continuation commute with every
    other enabled transition, so the whole run collapses into one edge.
    Stops at branching points, non-private shared-state moves, and
    time-sensitive statements, or once the chain is longer than
    `_CHAIN_LIMIT`.  Runs of internal steps are taken whole from
    `_private_run`; the system state is built again only where a move
    needs it.
    """
    if not _private(ctx, v):
        return (TransitionId(v.cls, mid, v.label, v.key), v.state)
    chain = [(v.label, v.key)]
    st = v.state
    while len(chain) <= _CHAIN_LIMIT:
        m = st.machine(mid)
        labels, cfg = _private_run(ctx, m.cfg)
        if labels:
            chain.extend(labels)
            st = with_cfg(st, m, cfg)
        # Done: the scan is over.  Internal: a loop step, which must stay
        # visible, or a run cut at `_CHAIN_LIMIT`.
        if isinstance(ctx.steps[cfg], (Done, Internal)):
            break
        nxt = machine_moves(ctx, st, mid)
        if len(nxt) != 1 or not _private(ctx, nxt[0]):
            break
        chain.append((nxt[0].label, nxt[0].key))
        st = nxt[0].state
    if len(chain) == 1:
        return (TransitionId(v.cls, mid, v.label, v.key), st)
    return (TransitionId("internal", mid, "seq", tuple(chain)), st)


def successors(ctx: RuleCtx, s: SystemState, por: bool = None) -> list:
    """Enabled transitions from `s` as (TransitionId, state) pairs.

    `por=None` follows the state's own options; passing True/False
    forces the reduced or the full enumeration.
    """
    if por is None:
        por = s.options.por
    starts = _start_moves(ctx, s)
    if por and starts:
        return starts
    per = []
    for m in s.machines:
        moves = machine_moves(ctx, s, m.mid)
        if por and _ample_eligible(ctx, moves):
            return [_chain_internal(ctx, m.mid, v) for v in moves]
        per.append((m.mid, moves))
    out = list(starts)
    for mid, moves in per:
        out.extend(_chain_internal(ctx, mid, v) for v in moves)
    out.extend(_tick_moves(ctx, s))
    out.extend(_env_moves(s))
    return out


def apply(ctx: RuleCtx, s: SystemState, tid: TransitionId) -> SystemState:
    """Replay one recorded transition; the full set is searched so that
    reduced-run traces replay identically."""
    for t, st in successors(ctx, s, por=False):
        if t == tid:
            return st
    raise ReplayError(f"transition {tid.pretty()} not enabled")


def _apply_if_enabled(ctx: RuleCtx, s: SystemState, tid: TransitionId):
    if tid.cls == "tick":
        if not tid.key or isinstance(tid.key[0], str):
            return None  # fixed-duration oracle is for concrete states
        d = tid.key[0]
        try:
            cap = mte_concrete(s)
        except ValueError:
            return None
        if not 0 < d <= cap:
            return None
        return tick_apply(s, d)
    try:
        return apply(ctx, s, tid)
    except ReplayError:
        return None


def check_independence(ctx: RuleCtx, s: SystemState, t1: TransitionId, t2: TransitionId):
    """Test whether two transitions commute at `s`.

    Returns None when the pair is not co-enabled (vacuous), False when
    one order disables the other or the two orders land in different
    states, True when both orders exist and converge.  Time steps are
    compared at a fixed duration: the recorded jump must stay available
    after the other transition.
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
    return canonicalize(ab) == canonicalize(ba)
