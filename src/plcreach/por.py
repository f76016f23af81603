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

One loop enumerates every state.  Each machine's moves, chained, come
as deltas `(tid, cfg, conns, msg_seq, constraints)`: the chain's id,
the machine's end configuration, and the links, `msg_seq` and path
condition the chain left, each None when the chain left it unchanged;
`model.moved_state` builds a successor from its parent and a delta.

A concrete-mode state without fresh variables takes its deltas from
`RuleCtx.moves` and its ticks from `RuleCtx.ticks`; every other state
is enumerated afresh, with none of their bookkeeping.  A machine's
entry in `moves` is keyed first by its configuration and the options,
then by the widest thing its chains read of the shared state: nothing;
whether each link is up; the exact links and `msg_seq`; those and the
timer.  The rules are deterministic in what they read, so an entry
holds for every state that agrees on what was read (the argument is at
`RuleCtx`).

Key before build: a search passes its bound, and then each chained
machine move of such a state comes as a `Delta`, the canonical key of
the successor, made from the key pieces the parent keeps
(`model.kept_pieces`) and the moved machine's new piece, beside what
builds it.  The search builds a state only for a key it has not stored,
and the moved machine keeps its piece.  A move or tick whose state lies
past the bound comes as None: it counts as a transition and as a
successor for the time-lock test, and is never built.  Without a bound
(`simulate`, `random_walk`, `replay`, `check_independence`), and for
every other state, successors come built, as the rules make them.
"""

from __future__ import annotations

from . import comm
from .comm import NEVER_PRIVATE, READ_VALIDITY, chainable, machine_moves
from .kmachine import Done, Internal, KConfig, NeedsComm
from .model import (SystemState, TransitionId, canonicalize, exact_links, kept_pieces,
                    moved_keys, moved_state)
from .st.ast import AssertTimeAnn, DelayAnn
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
    tick_with,
    window_left,
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


def _chain_internal(ctx: RuleCtx, v, keyed: bool = False):
    """Extend a machine move across its deterministic private run.

    Private moves with a single feasible continuation commute with every
    other enabled transition, so the whole run collapses into one edge.
    Stops at branching points, non-private moves, and loop steps, or once
    the chain is longer than `_CHAIN_LIMIT`.  The chain walks the move's
    two halves, the shared state and the machine's configuration: runs of
    internal steps are taken whole from `_private_run`, and
    `machine_moves` is asked with the chain's configuration beside the
    shared state.  No system state is built: returns `(tid, shared, cfg,
    reads)`, the chain's id and its two halves at its end, and, when
    `keyed` (for `RuleCtx.moves`), the widest thing the steps after the
    first read of the shared state (`_reads`; the step it stops before
    by `_stop_reads`), else `_NOTHING`.
    """
    if not v.private:
        return (TransitionId(v.cls, v.mid, v.label, v.key), v.shared, v.cfg, _NOTHING)
    chain = [(v.label, v.key)]
    shared, cfg = v.shared, v.cfg
    reads = _NOTHING
    while len(chain) <= _CHAIN_LIMIT:
        labels, cfg = _private_run(ctx, cfg)
        chain.extend(labels)
        out = ctx.steps[cfg]
        # Done: the scan is over.  Internal: a loop step, which must stay
        # visible, or a run cut at `_CHAIN_LIMIT`.
        if isinstance(out, (Done, Internal)):
            break
        nxt = machine_moves(ctx, shared, v.mid, cfg)
        if len(nxt) != 1 or not nxt[0].private:
            if keyed and isinstance(out, _READERS):
                reads = max(reads, _stop_reads(out, nxt, shared))
            break
        if keyed and isinstance(out, _READERS):
            reads = max(reads, _reads(out, nxt, shared))
        chain.append((nxt[0].label, nxt[0].key))
        shared, cfg = nxt[0].shared, nxt[0].cfg
    if len(chain) == 1:
        return (TransitionId(v.cls, v.mid, v.label, v.key), shared, cfg, reads)
    return (TransitionId("internal", v.mid, "seq", tuple(chain)), shared, cfg, reads)


# What a machine's chains read of the shared state, narrowest first (see
# `RuleCtx.moves`): nothing; whether each link exists and is up; the
# exact links and `msg_seq`; those and the machine's timer and cycle
# time.
_NOTHING, _VALIDITY, _LINKS, _TIMER = range(4)
# The step outcomes whose rules read the shared state at all.
_READERS = (NeedsComm, AssertTimeAnn, DelayAnn)


def _reads(out, moves: list, shared: SystemState) -> int:
    """What the rule of step outcome `out` read of `shared` to make
    `moves`: their number, ids, privacy and effects."""
    if isinstance(out, NeedsComm):
        if out.name in READ_VALIDITY and all(v.shared is shared for v in moves):
            return _VALIDITY
        return _LINKS
    if isinstance(out, AssertTimeAnn):
        return _TIMER
    # setDelay reads the link it retunes
    return _LINKS if isinstance(out, DelayAnn) else _NOTHING


def _stop_reads(out, moves: list, shared: SystemState) -> int:
    """What a chain read to stop before step outcome `out`, whose moves
    are `moves`: only whether they are one private move, which a rule
    that never makes one decides without reading anything."""
    if isinstance(out, (AssertTimeAnn, DelayAnn)) or (
            isinstance(out, NeedsComm) and out.name in NEVER_PRIVATE):
        return _NOTHING
    return _reads(out, moves, shared)


class _Reads:
    """The `ctx.moves` entry of a configuration whose chains read the
    shared state: the widest `level` any of them read so far, and the
    groups keyed by what that level reads (`_second`)."""

    __slots__ = ("level", "groups")

    def __init__(self, level: int):
        self.level = level
        self.groups = {}


def _second(level: int, s: SystemState, m, links: tuple):
    """The second-level `ctx.moves` key of machine `m` of `s` at `level`;
    `links` is `_links(ctx, s)`."""
    if level == _VALIDITY:
        return links[1]
    if level == _LINKS:
        return (links[0], s.msg_seq)
    return (links[0], s.msg_seq, m.timer, m.cycle_time)


def _links(ctx: RuleCtx, s: SystemState) -> tuple:
    """`(id, validity)` of the links of `s`: one int per distinct
    `exact_links`, interned in `ctx.links`, and each link's pair and
    whether it is up."""
    exact = exact_links(s)
    got = ctx.links.get(exact)
    if got is None:
        got = ctx.links[exact] = (len(ctx.links), tuple([(c.pair, c.valid) for c in s.conns]))
    return got


def _group(ctx: RuleCtx, s: SystemState, i: int, links) -> tuple:
    """Machine `s.machines[i]`'s chained moves in `s` as `(private,
    deltas)`: whether every unchained move is private, and per chain its
    delta.  Given `links` (`_links(ctx, s)`, for a concrete state without
    fresh variables), the group is recalled from or remembered in
    `ctx.moves` (see `RuleCtx.moves`); without, it is enumerated afresh,
    and what the chains read is not taken."""
    m = s.machines[i]
    keyed = links is not None
    if keyed:
        key = (m.mid, m.cfg, s.options)
        entry = ctx.moves.get(key)
        if entry.__class__ is tuple:
            return entry
        if entry is not None:
            got = entry.groups.get(_second(entry.level, s, m, links))
            if got is not None:
                return got
    moves = machine_moves(ctx, s, m.mid)
    level = _reads(ctx.steps[m.cfg], moves, s) if keyed else _NOTHING
    private = True
    deltas = []
    for v in moves:
        tid, shared, cfg, reads = _chain_internal(ctx, v, keyed)
        if reads > level:
            level = reads
        if not v.private:
            private = False
        deltas.append((
            tid, cfg,
            None if shared.conns is s.conns else shared.conns,
            None if shared.msg_seq == s.msg_seq else shared.msg_seq,
            None if shared.constraints is s.constraints else shared.constraints,
        ))
    got = (private, tuple(deltas))
    if not keyed:
        return got
    if level == _NOTHING:
        ctx.moves[key] = got
    else:
        if entry is None or entry.level < level:
            # widen: the groups kept so far are keyed too narrowly for this one
            entry = ctx.moves[key] = _Reads(level)
        entry.groups[_second(entry.level, s, m, links)] = got
    return got


class Delta(tuple):
    """A chained machine move out of a concrete state without fresh
    variables, keyed before it is built: `(key, parent, i, delta)`, where
    `key` is the canonical key of the successor (`model.moved_keys`) and
    `delta` machine `i`'s entry in `RuleCtx.moves`.  `state()` builds the
    successor, the moved machine keeping its key piece.  `successors`
    with a bound returns these in place of states, so that a search
    builds only the successors it has not stored."""

    __slots__ = ()

    @property
    def key(self) -> tuple:
        return self[0]

    def state(self) -> SystemState:
        key, s, i, (_, cfg, conns, msg_seq, constraints) = self
        return moved_state(s, i, cfg, conns, msg_seq, constraints, key[0][i])


def _moved(s: SystemState, i: int, deltas: tuple, bound, pieces) -> list:
    """Machine `s.machines[i]`'s successors in `s` from its deltas: built
    when `pieces` (`kept_pieces(s)`) is None; else each as a `Delta`, or
    as None when `s` lies past `bound`."""
    if pieces is None:
        return [(tid, moved_state(s, i, cfg, conns, msg_seq, constraints))
                for tid, cfg, conns, msg_seq, constraints in deltas]
    if s.clock > bound:
        return [(d[0], None) for d in deltas]
    keys = moved_keys(s, pieces, i, deltas)
    return [(d[0], Delta((k, s, i, d))) for d, k in zip(deltas, keys)]


def _ticks(ctx: RuleCtx, s: SystemState, links, bound) -> list:
    """The ticks of `s`.  With `links` recalled from or remembered in
    `ctx.ticks`, and with a bound, one that ends past it as None; without
    `links` made afresh."""
    if links is None:
        return (tick_symbolic if s.options.symbolic else tick_concrete)(ctx, s)
    key = (tuple([(m.timer, window_left(m)) for m in s.machines]), links[0], s.options)
    menu = ctx.ticks.get(key)
    if menu is None:
        out = tick_concrete(ctx, s)
        ctx.ticks[key] = tuple([
            (tid, tuple([x.timer for x in st.machines]), st.conns) for tid, st in out])
        if bound is not None:
            out = [(tid, None if st.clock > bound else st) for tid, st in out]
        return out
    sep = s.options.clock_sep
    out = []
    for tid, timers, conns in menu:
        d = tid.key[0]
        if bound is not None and (s.clock if sep else s.clock + d) > bound:
            out.append((tid, None))
        else:
            out.append((tid, tick_with(ctx, s, d, timers, conns)))
    return out


def successors(ctx: RuleCtx, s: SystemState, por: bool = None, *, first: bool = False,
               bound=None) -> list:
    """Enabled transitions from `s` as (TransitionId, state) pairs, as the
    rules make them, with machine moves chained across private runs.

    `por=None` follows the state's own options; passing True/False
    forces the reduced or the full enumeration.  With `first`, only the
    first non-empty group of the full enumeration is built, in its
    order: the start variants; else the chained moves of the
    lowest-numbered machine that has moves; else the time steps (ticks,
    then envTicks).  `por` is moot then: the reduction never splits a
    group.

    Each machine's chained moves come as deltas (`_group`), built into
    states by `model.moved_state`.  A concrete-mode state without fresh
    variables takes them, and its ticks, from the memo tables
    `ctx.moves` and `ctx.ticks` (see `RuleCtx`); any other state is
    enumerated afresh, without their bookkeeping.

    `bound`, a search's time bound, asks such a memoised state for its
    successors keyed before they are built: each chained machine move
    comes as a `Delta`, whose canonical key is made from the key pieces
    the parent keeps and the moved machine's new piece, so a search
    builds a state only for a key it has not stored.  A move or tick
    whose state lies past the bound comes with None in place of a state:
    it is enabled, but nothing is built.  Starts, ticks inside the bound
    and the successors of every other state come built.
    """
    if por is None:
        por = s.options.por
    starts = start_variants(ctx, s)
    if starts and (por or first):
        return starts
    links = None if s.fresh_counter or s.options.symbolic else _links(ctx, s)
    pieces = None if links is None or bound is None else kept_pieces(s)
    per = []
    for i in range(len(s.machines)):
        private, deltas = _group(ctx, s, i, links)
        if deltas and (first or (por and private)):
            return _moved(s, i, deltas, bound, pieces)
        per.append(deltas)
    out = list(starts)
    for i, deltas in enumerate(per):
        if deltas:
            out.extend(_moved(s, i, deltas, bound, pieces))
    out.extend(_ticks(ctx, s, links, bound))
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
