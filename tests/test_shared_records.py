"""A successor reuses what it shares with its parent.

Three shortcuts of the concrete successor path, each against the long way
it replaces:
- `model.canonicalize` keeps the key piece of each machine and link on the
  record when the state has no fresh variable; a state with a fresh-variable
  counter takes the walk, which must give the same key.
- `comm.machine_moves` takes a chain's configuration beside the shared
  state, instead of a system state built around it.
- `comm._answer` gives one configuration object per communication answer,
  keeping answers of different classes apart.
"""

import random
from collections import deque

import pytest

from plcreach import bench, comm
from plcreach.comm import machine_moves
from plcreach.explorer import random_walk
from plcreach.kmachine import NeedsComm, step
from plcreach.model import _PIECE, canonicalize, moved_state
from plcreach.por import successors
from plcreach.solver import SmtCheck
from plcreach.timed import RuleCtx
from plcreach.values import RCV_ERROR, copy_with

from test_answers import loaded


def _graph(name: str, bound: int) -> list:
    """Every state of the unreduced concrete graph up to `bound`."""
    scen = bench.load(name)
    ctx = scen.context()
    s0 = scen.initial_state(mode="concrete", por=False)
    seen = {canonicalize(s0)}
    states, queue = [s0], deque([s0])
    while queue:
        for _, st in successors(ctx, queue.popleft()):
            if st.clock > bound:
                continue
            k = canonicalize(st)
            if k not in seen:
                seen.add(k)
                states.append(st)
                queue.append(st)
    return states


@pytest.mark.parametrize("name", ["ptpc", "rvc"])
def test_record_kept_keys_match_the_walk(name):
    states = _graph(name, 10)
    assert len(states) == 6601  # as pinned in test_graph_pins.py
    for s in states:
        assert s.fresh_counter == 0
        # A nonzero counter sends canonicalize down the walk.
        assert canonicalize(s) == canonicalize(copy_with(s, fresh_counter=1))


def test_a_copy_carries_no_key_piece():
    scen = bench.load("ptpc")
    ctx = scen.context()
    s = scen.initial_state()
    # Walk until a link holds a message, so both kinds of record are keyed.
    for _ in range(200):
        if any(c.buffer for c in s.conns):
            break
        s = successors(ctx, s, first=True)[0][1]
    conn = next(c for c in s.conns if c.buffer)
    canonicalize(s)
    m = s.machines[0]
    assert _PIECE in m.__dict__ and _PIECE in conn.__dict__
    assert _PIECE not in copy_with(m, timer=m.timer).__dict__
    assert _PIECE not in copy_with(conn, valid=conn.valid).__dict__
    assert _PIECE not in moved_state(s, 0, m.cfg).machines[0].__dict__


def _seen(moves, i) -> list:
    return [(moved_state(v.shared, i, v.cfg), v.label, v.key, v.private) for v in moves]


@pytest.mark.parametrize(
    "name, mode",
    [("ptpc", "concrete"), ("rvc", "concrete"), ("commdemo", "concrete"),
     ("commdemo", "symbolic")],
)
def test_a_chain_configuration_beside_the_shared_state(name, mode):
    scen = bench.load(name)
    s0 = scen.initial_state(mode=mode)
    checked = 0
    for seed in range(3):
        ctx = scen.context()
        walk = random_walk(ctx, s0, 40, random.Random(f"{name}-{seed}"))
        for _, s in walk:
            for i, m in enumerate(s.machines):
                for v in machine_moves(ctx, s, m.mid):
                    # `v.shared` still holds the configuration before `v`.
                    apart = machine_moves(ctx, v.shared, v.mid, v.cfg)
                    joined = machine_moves(ctx, moved_state(v.shared, i, v.cfg), v.mid)
                    assert _seen(apart, i) == _seen(joined, i)
                    checked += len(joined)
    assert checked > 0


def _suspended(body: str):
    table, _, cfg = loaded(body)
    out = step(table, cfg)
    assert isinstance(out, NeedsComm) and out.site is not None
    return RuleCtx(table, SmtCheck()), cfg, out


def test_a_repeated_answer_gives_one_configuration():
    ctx, cfg, out = _suspended("b := isConnected('T2');")
    first = comm._answer(ctx, cfg, out, True)
    assert first.answers == (True,)
    assert comm._answer(ctx, cfg, out, True) is first
    # An equal configuration built apart finds the same entry.
    assert comm._answer(ctx, copy_with(cfg), out, True) is first


def test_repeated_comm_moves_share_their_configurations():
    scen = bench.load("ptpc")
    ctx = scen.context()
    s = scen.initial_state()
    for _ in range(200):
        s = successors(ctx, s, first=True)[0][1]
        for m in s.machines:
            moves = [v for v in machine_moves(ctx, s, m.mid) if v.cls == "comm"]
            if moves:
                again = machine_moves(ctx, copy_with(s), m.mid)
                assert [v.cfg for v in moves] == [v.cfg for v in again if v.cls == "comm"]
                assert all(a.cfg is b.cfg for a, b in zip(moves, again))
                return
    raise AssertionError("no communication move met")


def test_answers_of_different_classes_stay_apart():
    ctx, cfg, out = _suspended("b := isConnected('T2');")
    got = {repr(a): comm._answer(ctx, cfg, out, a) for a in (1, True, RCV_ERROR)}
    assert len({id(c) for c in got.values()}) == 3
    for a, c in zip((1, True, RCV_ERROR), got.values()):
        (held,) = c.answers
        assert held.__class__ is a.__class__ and held == a
