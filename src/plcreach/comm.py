"""Per-machine scan steps lifted to whole-system moves.

A machine's next step is either internal (assignment, branch, timing
window) or touches the shared network state (connection management,
message transfer).  A move's class ("internal": only the owning machine;
"comm": may read or write channel state) goes into its transition id; the
reduction keys on the move's `private` flag, set as described below.

No rule builds a successor state.  A `Move` keeps its two halves apart:
`shared`, the system state with the move's effect on links, `msg_seq` and
the path condition, and `cfg`, the machine's configuration after the
move.  `por.successors` chains a machine's moves on these halves and
builds each successor once, from its parent and what the chain changed
(`model.moved_state`).  The rule that makes a move also decides whether
it is `private`, with the reason next to it.

The rules are pure functions of what they read, so `por.successors`
memoises a machine's moves, chained, in `RuleCtx.moves` for concrete
states without fresh variables, and calls `machine_moves` only on a
miss.  Its keys hold what the rules read of the shared state, which
`READ_VALIDITY` and `NEVER_PRIVATE` below say per rule (the key is
argued at `RuleCtx`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .kmachine import (
    Branch,
    Done,
    Failed,
    Internal,
    KConfig,
    NeedsComm,
    pop_head,
    resume_comm,
    step,
)
from .model import Conn, ModelError, Msg, SystemState, conn_pair
from .st.ast import AssertTimeAnn, DelayAnn
from .symbolic import concrete_or_none, feasible
from .timed import RuleCtx, elapsed_in_cycle
from .values import RCV_ERROR, bnot, cmp_le, cmp_lt, copy_with


@dataclass(frozen=True)
class Move:
    """One enabled transition of machine `mid`.

    `private` is true when the move commutes with time passage and with
    every move of every other machine, so that `por` may take it alone.
    """

    label: str
    cls: str  # "internal" | "comm"
    key: tuple
    mid: str
    shared: SystemState
    cfg: KConfig
    private: bool


def chainable(out) -> bool:
    """Is this step outcome a private internal move?  A loop step is not:
    it may recur forever, and every cycle in the reduced graph must keep
    a fully expanded state."""
    return isinstance(out, Internal) and out.label != "while"


def _name_arg(mid: str, out: NeedsComm, idx: int, what: str) -> str:
    v = out.argvalues[idx]
    if not isinstance(v, str):
        raise ModelError(f"machine {mid}: {out.name}: {what} must be a name, got {v!r}")
    return v


def machine_moves(ctx: RuleCtx, s: SystemState, mid: str, cfg: KConfig = None) -> list:
    """All moves the given machine can take from `s` (may be empty).

    `cfg`, when given, is the machine's configuration in place of the one
    `s` holds, so that a chain of moves (`por._chain_internal`) walks the
    shared state and the configuration apart, building no system state.
    No rule reads the machine's configuration from `s`.
    """
    if cfg is None:
        cfg = s.machine(mid).cfg
    out = ctx.steps.get(cfg)
    if out is None:
        out = ctx.steps[cfg] = step(ctx.table, cfg)
    if isinstance(out, Done):
        return []
    if isinstance(out, Failed):
        raise ModelError(f"machine {mid}: runtime failure: {out.reason}")
    if isinstance(out, Internal):
        # Private unless it is a loop step (see chainable).
        return [Move(out.label, "internal", (), mid, s, out.cfg, chainable(out))]
    if isinstance(out, Branch):
        return _branch_moves(ctx, s, mid, out)
    if isinstance(out, AssertTimeAnn):
        return _assert_moves(ctx, s, mid, cfg, out)
    if isinstance(out, DelayAnn):
        return _delay_moves(s, mid, cfg, out)
    if isinstance(out, NeedsComm):
        partner = _name_arg(mid, out, 0, "partner")
        pair = conn_pair(cfg.current_prog, partner)
        return _COMM_RULES[out.name](ctx, s, mid, cfg, out, partner, pair, s.conn(*pair))
    raise ModelError(f"machine {mid}: unexpected step outcome {out!r}")


def _answer(ctx: RuleCtx, cfg: KConfig, out: NeedsComm, value) -> KConfig:
    """`resume_comm(cfg, out.site, value)`, one object per answer (see
    `RuleCtx.resumed`).  `out` is the step outcome of `cfg`."""
    key = (cfg, value.__class__, value)
    got = ctx.resumed.get(key)
    if got is None:
        got = ctx.resumed[key] = resume_comm(cfg, out.site, value)
    return got


def _branch_moves(ctx: RuleCtx, s: SystemState, mid: str, out: Branch) -> list:
    # Undetermined condition: explore both arms under the matching constraint.
    moves = []
    for label, cond, cfg in (
        ("if-true", out.cond, out.then_cfg),
        ("if-false", bnot(out.cond), out.else_cfg),
    ):
        s2 = feasible(ctx.checker, s, cond)
        if s2 is not False:
            # Private: the arm only narrows the path condition, over values
            # this scan has already fixed.
            moves.append(Move(label, "internal", (), mid, s2, cfg, True))
    return moves


def _assert_moves(ctx: RuleCtx, s: SystemState, mid: str, cfg: KConfig, out: AssertTimeAnn) -> list:
    # Before the window time must pass; after it the scan is stuck.
    e = elapsed_in_cycle(s.machine(mid))
    s2 = feasible(ctx.checker, s, cmp_le(out.lo, e), cmp_le(e, out.hi))
    if s2 is False:
        return []
    # Not private: whether the window is open depends on elapsed time.
    return [Move("assertTime", "internal", (), mid, s2, pop_head(cfg), False)]


def _delay_moves(s: SystemState, mid: str, cfg: KConfig, out: DelayAnn) -> list:
    pair = conn_pair(out.a, out.b)
    conn = s.conn(*pair) or Conn(pair=pair)
    s2 = s.with_conn(copy_with(conn, delay_lo=out.lo, delay_hi=out.hi))
    # Not private: later sends on the link read its delays.
    return [Move("setDelay", "comm", (pair,), mid, s2, pop_head(cfg), False)]


# -- connection management ---------------------------------------------------


# Each rule below takes the machine, its configuration, its pending call
# `out`, its partner program, the link's pair and the link itself (None if
# never set up); the call's answer goes into the configuration by
# `_answer`.
# Only the moves marked below are private.  Every other one writes a link,
# or reads what a move of another machine or time passage can change.


def _connect_moves(ctx, s, mid, cfg, out, partner, pair, conn) -> list:
    if conn is None:
        fail = _answer(ctx, cfg, out, False)
        return [Move("conFail", "comm", (pair,), mid, s, fail, False)]
    ok = _answer(ctx, cfg, out, True)
    if conn.valid:
        # Re-requesting an established connection succeeds without writing
        # shared state.  Private only when the loaded programs never drop a
        # link (`ctx.comm_ample`): after another machine's disconnect, the
        # request would bring the link back up.
        return [Move("conSucc", "internal", (pair,), mid, s, ok, ctx.comm_ample)]
    up = s.with_conn(copy_with(conn, valid=True))
    moves = [Move("conSucc", "comm", (pair,), mid, up, ok, False)]
    if not s.options.reliable_connect:
        fail = _answer(ctx, cfg, out, False)
        moves.append(Move("conFail", "comm", (pair,), mid, s, fail, False))
    return moves


def _disconnect_moves(ctx, s, mid, cfg, out, partner, pair, conn) -> list:
    was = conn is not None and conn.valid
    # In-flight messages stay deliverable; only the link validity drops.
    s2 = s if conn is None else s.with_conn(copy_with(conn, valid=False))
    after = _answer(ctx, cfg, out, was)
    return [Move("disconnect", "comm", (pair,), mid, s2, after, False)]


def _concheck_moves(ctx, s, mid, cfg, out, partner, pair, conn) -> list:
    valid = bool(conn is not None and conn.valid)
    after = _answer(ctx, cfg, out, valid)
    # Private when the link is up and the loaded programs never drop a
    # link (`ctx.comm_ample`): nothing writes its validity then.
    private = valid and ctx.comm_ample
    return [Move("conCheck", "comm", (valid,), mid, s, after, private)]


# -- message transfer --------------------------------------------------------


def _rcv_ample(conn: Conn, matching: list) -> bool:
    """May a delivery here run ahead of the other machines?

    Only if no rival delivery can open up while the current candidates
    are still alive: time passage from here is capped by the earliest
    delivery deadline H, so the receive commutes with everything else
    exactly when every in-transit candidate matures after H and no
    future send (earliest arrival: the link's minimum delay) can beat
    H either.  Anything symbolic disqualifies the shortcut.
    """
    horizon = None
    pending = []
    for msg in matching:
        mn = concrete_or_none(msg.min_timer)
        mx = concrete_or_none(msg.max_timer)
        if mn is None or mx is None:
            return False
        if mn > 0:
            pending.append(mn)
        elif horizon is None or mx < horizon:
            horizon = mx
    if horizon is None:
        return False
    return conn.delay_lo > horizon and all(mn > horizon for mn in pending)


def _send_moves(ctx, s, mid, cfg, out, partner, pair, conn) -> list:
    # Never private: the delivery window starts at the send instant, so
    # reordering a send against a time step is observable.
    send_fb = _name_arg(mid, out, 1, "sending block")
    recv_fb = _name_arg(mid, out, 2, "receiving block")
    data = out.argvalues[3]
    if conn is None or not conn.valid:
        fail = _answer(ctx, cfg, out, False)
        return [Move("sendDataFail", "comm", (pair,), mid, s, fail, False)]
    msg = Msg(
        sender=cfg.current_prog,
        receiver=partner,
        send_fb=send_fb,
        recv_fb=recv_fb,
        data=data,
        min_timer=conn.delay_lo,
        max_timer=conn.delay_hi,
        seq=s.msg_seq,
    )
    s2 = s.with_conn(copy_with(conn, buffer=conn.buffer + (msg,)))
    s2 = copy_with(s2, msg_seq=s.msg_seq + 1)
    after = _answer(ctx, cfg, out, True)
    return [Move("sendData", "comm", (msg.seq,), mid, s2, after, False)]


def _rcv_moves(ctx, s, mid, cfg, out, partner, pair, conn) -> list:
    want = (partner, cfg.current_prog, _name_arg(mid, out, 1, "sending block"),
            _name_arg(mid, out, 2, "receiving block"))
    error = _answer(ctx, cfg, out, RCV_ERROR)
    if conn is None or not conn.valid:
        return [Move("rcvFail", "comm", (pair,), mid, s, error, False)]
    matching = [x for x in conn.buffer if (x.sender, x.receiver, x.send_fb, x.recv_fb) == want]
    if not matching:
        return [Move("rcvNo", "comm", (pair,), mid, s, error, False)]
    # Private when the loaded programs never drop a link and no rival
    # delivery can race this one (see _rcv_ample).
    private = ctx.comm_ample and _rcv_ample(conn, matching)
    moves = []
    for msg in matching:
        s2 = feasible(ctx.checker, s, cmp_le(msg.min_timer, 0))
        if s2 is False:
            continue
        rest = tuple(x for x in conn.buffer if x.seq != msg.seq)
        s2 = s2.with_conn(copy_with(conn, buffer=rest))
        got = _answer(ctx, cfg, out, msg.data)
        moves.append(Move("rcvData", "comm", (msg.seq,), mid, s2, got, private))
    if s.options.rcv_no_on_pending:
        # Giving up is only allowed while every candidate is still in transit.
        pending = [cmp_lt(0, msg.min_timer) for msg in matching]
        s2 = feasible(ctx.checker, s, *pending)
        if s2 is not False:
            moves.append(Move("rcvNo", "comm", (pair,), mid, s2, error, False))
    return moves


# What the rules read of the shared state, for the keys of `RuleCtx.moves`.
# Each of these reads only whether the pair's link exists and is up when
# it leaves the links as they are.  connectRequest brings a link up,
# disconnect takes one down, and a send appends to a link that is up.
READ_VALIDITY = frozenset({"connectRequest", "disconnect", "isConnected", "sendData"})
# These two never make a private move, whatever the link holds.
NEVER_PRIVATE = frozenset({"disconnect", "sendData"})

# One rule per name in `st.builtins.COMM_INTRINSICS`.
_COMM_RULES = {
    "connectRequest": _connect_moves,
    "disconnect": _disconnect_moves,
    "isConnected": _concheck_moves,
    "sendData": _send_moves,
    "rcvData": _rcv_moves,
}
