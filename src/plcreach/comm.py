"""Per-machine scan steps lifted to whole-system moves.

A machine's next step is either private (assignment, branch, timing
window) or touches the shared network state (connection management,
message transfer).  Each candidate move carries the interleaving class
the reduction heuristics key on: "internal" moves affect only the owning
machine, "comm" moves may read or write channel state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .kmachine import (
    AssertTime,
    Branch,
    DelaySet,
    Done,
    Failed,
    Internal,
    KConfig,
    NeedsComm,
    pop_head,
    resume_comm,
    step,
)
from .model import Conn, ModelError, Msg, PLCMachine, SystemState, conn_pair
from .symbolic import concrete_or_none, feasible
from .timed import RuleCtx, elapsed_in_cycle
from .values import RCV_ERROR, bnot, cmp_le, cmp_lt


@dataclass(frozen=True)
class Move:
    """One enabled transition of a single machine."""

    label: str
    cls: str  # "internal" | "comm"
    key: tuple
    state: SystemState
    # False when taking this move ahead of other machines could hide a
    # behavior; only receive moves ever clear it (see _rcv_moves).
    ample_ok: bool = True


def with_cfg(s: SystemState, m: PLCMachine, cfg: KConfig) -> SystemState:
    # Any machine move re-arms time passage: a tick after it is no
    # longer a mergeable continuation of the previous tick.
    machines = tuple(replace(x, cfg=cfg) if x.mid == m.mid else x for x in s.machines)
    return replace(s, machines=machines, ticked=False)


def _resumed(s: SystemState, m: PLCMachine, out: NeedsComm, value) -> SystemState:
    return with_cfg(s, m, resume_comm(m.cfg, out.site, value))


def _name_arg(out: NeedsComm, idx: int, what: str) -> str:
    v = out.argvalues[idx]
    if not isinstance(v, str):
        raise ModelError(f"{out.name}: {what} must be a name, got {v!r}")
    return v


def machine_moves(ctx: RuleCtx, s: SystemState, mid: str) -> list:
    """All moves the given machine can take from `s` (may be empty)."""
    m = s.machine(mid)
    out = ctx.steps.get(m.cfg)
    if out is None:
        out = ctx.steps[m.cfg] = step(ctx.table, m.cfg)
    if isinstance(out, Done):
        return []
    if isinstance(out, Failed):
        raise ModelError(f"machine {mid}: runtime failure: {out.reason}")
    if isinstance(out, Internal):
        return [Move(out.label, "internal", (), with_cfg(s, m, out.cfg))]
    if isinstance(out, Branch):
        return _branch_moves(ctx, s, m, out)
    if isinstance(out, AssertTime):
        return _assert_moves(ctx, s, m, out)
    if isinstance(out, DelaySet):
        return _delay_moves(s, m, out)
    if isinstance(out, NeedsComm):
        partner = _name_arg(out, 0, "partner")
        pair = conn_pair(m.cfg.current_prog, partner)
        return _COMM_RULES[out.name](ctx, s, m, out, partner, pair, s.conn(*pair))
    raise ModelError(f"machine {mid}: unexpected step outcome {out!r}")


def _branch_moves(ctx: RuleCtx, s: SystemState, m: PLCMachine, out: Branch) -> list:
    # Undetermined condition: explore both arms under the matching constraint.
    moves = []
    for label, cond, cfg in (
        ("if-true", out.cond, out.then_cfg),
        ("if-false", bnot(out.cond), out.else_cfg),
    ):
        s2 = feasible(ctx.checker, s, cond)
        if s2 is not False:
            moves.append(Move(label, "internal", (), with_cfg(s2, m, cfg)))
    return moves


def _assert_moves(ctx: RuleCtx, s: SystemState, m: PLCMachine, out: AssertTime) -> list:
    # Before the window time must pass; after it the scan is stuck.
    e = elapsed_in_cycle(m)
    s2 = feasible(ctx.checker, s, cmp_le(out.lo, e), cmp_le(e, out.hi))
    if s2 is False:
        return []
    return [Move("assertTime", "internal", (), with_cfg(s2, m, pop_head(m.cfg)))]


def _delay_moves(s: SystemState, m: PLCMachine, out: DelaySet) -> list:
    pair = conn_pair(out.a, out.b)
    conn = s.conn(*pair)
    if conn is None:
        conn = Conn(pair=pair)
    conn = replace(conn, delay_lo=out.lo, delay_hi=out.hi)
    s2 = s.with_conn(conn)
    return [Move("setDelay", "comm", (pair,), with_cfg(s2, m, pop_head(m.cfg)))]


# -- connection management ---------------------------------------------------


# Each rule below takes the machine's pending call `out`, its partner
# program, the link's pair and the link itself (None if never set up).


def _connect_moves(ctx, s, m, out, partner, pair, conn) -> list:
    if conn is None:
        return [Move("conFail", "comm", (pair,), _resumed(s, m, out, False))]
    if conn.valid:
        # Re-requesting an established connection succeeds without touching
        # shared state, so the move is private to this machine.
        return [Move("conSucc", "internal", (pair,), _resumed(s, m, out, True))]
    ok = s.with_conn(replace(conn, valid=True))
    moves = [Move("conSucc", "comm", (pair,), _resumed(ok, m, out, True))]
    if not s.options.reliable_connect:
        moves.append(Move("conFail", "comm", (pair,), _resumed(s, m, out, False)))
    return moves


def _disconnect_moves(ctx, s, m, out, partner, pair, conn) -> list:
    s2 = s
    was = False
    if conn is not None:
        was = conn.valid
        # In-flight messages stay deliverable; only the link validity drops.
        s2 = s.with_conn(replace(conn, valid=False))
    return [Move("disconnect", "comm", (pair,), _resumed(s2, m, out, was))]


def _concheck_moves(ctx, s, m, out, partner, pair, conn) -> list:
    valid = bool(conn is not None and conn.valid)
    return [Move("conCheck", "comm", (valid,), _resumed(s, m, out, valid))]


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


def _send_moves(ctx, s, m, out, partner, pair, conn) -> list:
    send_fb = _name_arg(out, 1, "sending block")
    recv_fb = _name_arg(out, 2, "receiving block")
    data = out.argvalues[3]
    if conn is None or not conn.valid:
        return [Move("sendDataFail", "comm", (pair,), _resumed(s, m, out, False))]
    msg = Msg(
        sender=m.cfg.current_prog,
        receiver=partner,
        send_fb=send_fb,
        recv_fb=recv_fb,
        data=data,
        min_timer=conn.delay_lo,
        max_timer=conn.delay_hi,
        seq=s.msg_seq,
    )
    s2 = replace(s.with_conn(replace(conn, buffer=conn.buffer + (msg,))), msg_seq=s.msg_seq + 1)
    return [Move("sendData", "comm", (msg.seq,), _resumed(s2, m, out, True))]


def _rcv_moves(ctx, s, m, out, partner, pair, conn) -> list:
    want_fb = _name_arg(out, 1, "sending block")
    own_fb = _name_arg(out, 2, "receiving block")
    cur = m.cfg.current_prog
    if conn is None or not conn.valid:
        return [Move("rcvFail", "comm", (pair,), _resumed(s, m, out, RCV_ERROR))]
    matching = [
        msg
        for msg in conn.buffer
        if msg.sender == partner
        and msg.receiver == cur
        and msg.send_fb == want_fb
        and msg.recv_fb == own_fb
    ]
    if not matching:
        return [Move("rcvNo", "comm", (pair,), _resumed(s, m, out, RCV_ERROR))]
    ample = _rcv_ample(conn, matching)
    moves = []
    for msg in matching:
        s2 = feasible(ctx.checker, s, cmp_le(msg.min_timer, 0))
        if s2 is False:
            continue
        rest = tuple(x for x in conn.buffer if x.seq != msg.seq)
        s2 = s2.with_conn(replace(conn, buffer=rest))
        moves.append(
            Move("rcvData", "comm", (msg.seq,), _resumed(s2, m, out, msg.data), ample)
        )
    if s.options.rcv_no_on_pending:
        # Giving up is only allowed while every candidate is still in transit.
        pending = [cmp_lt(0, msg.min_timer) for msg in matching]
        s2 = feasible(ctx.checker, s, *pending)
        if s2 is not False:
            moves.append(Move("rcvNo", "comm", (pair,), _resumed(s2, m, out, RCV_ERROR)))
    return moves


# One rule per name in `st.builtins.COMM_INTRINSICS`.
_COMM_RULES = {
    "connectRequest": _connect_moves,
    "disconnect": _disconnect_moves,
    "isConnected": _concheck_moves,
    "sendData": _send_moves,
    "rcvData": _rcv_moves,
}
