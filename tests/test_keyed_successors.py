"""A search's successors are the ones the rules make.

With a bound, `por.successors` recalls each machine's chained moves of a
concrete state without fresh variables from `RuleCtx.moves` as deltas,
and its ticks from `RuleCtx.ticks`, and builds every successor from
them; only a time step that ends past the bound comes as None.  So the
states built must be the ones the rules make, message identities and
the classes of values included, and their canonical keys theirs.

`RuleCtx.moves` keys each configuration's chained moves by the widest
thing they read: nothing, whether each link is up, the exact links, the
timer.  Two states that differ only in the timers of messages in flight
share an entry exactly when the chains read no more than whether each
link is up.
"""

import random

import pytest

from plcreach import bench, por
from plcreach.explorer import random_walk, search, simulate
from plcreach.model import SystemState, canonicalize, exact_links
from plcreach.por import successors
from plcreach.symbolic import concrete_or_none, feasible
from plcreach.values import cmp_le, cmp_lt, copy_with

MODELS = ["ptpc", "rvc", "therc", "commdemo"]
# far past every clock the walks reach: nothing is cut
WIDE = 1000


def _walk(name, steps=40, seed=7, **options):
    scen = bench.load(name)
    s0 = scen.initial_state(**options)
    return scen, [s0] + [s for _, s in random_walk(scen.context(), s0, steps, random.Random(seed))]


def _exact(tid, s):
    return (tid, canonicalize(s), s.msg_seq, exact_links(s))


def _built(ctx, s, por_on, bound):
    """The enumeration of `s` under `bound`: every successor a built
    state, save a time step past the bound, which stays None."""
    out = successors(ctx, s, por_on, bound=bound)
    for tid, st in out:
        assert isinstance(st, SystemState) or (st is None and tid.cls in ("tick", "env"))
    return out


@pytest.mark.parametrize("name", MODELS)
def test_each_delta_builds_the_state_the_rules_make(name):
    scen, states = _walk(name)
    ctx = scen.context()
    for s in states:
        for por_on in (False, True):
            got = [_exact(tid, st) for tid, st in _built(ctx, s, por_on, WIDE)]
            want = [_exact(tid, st) for tid, st in successors(scen.context(), s, por_on)]
            assert got == want
    assert ctx.moves and ctx.ticks and ctx.links


# concrete walks, symbolic ones, and clock-separated ones, whose ticks
# leave the clock and whose envTicks move it
BOUNDED_WALKS = {
    **{name: (name, {}) for name in MODELS},
    "commdemo-symbolic": ("commdemo", {"mode": "symbolic"}),
    "query1-symbolic": ("query1", {"mode": "symbolic"}),
    "ptpc-clock-sep": ("ptpc", {"clock_sep": True}),
}


@pytest.mark.parametrize("name, options", BOUNDED_WALKS.values(), ids=BOUNDED_WALKS.keys())
def test_a_step_past_the_bound_is_enabled_but_not_built(name, options):
    """A bounded enumeration has the transitions of the unbounded one.
    Every state it builds lies provably inside the bound, and a time step
    whose unbounded twin ends provably past the bound comes as None.  The
    bounds are the parent's clock, and one and ten units later: a state
    whose clock holds a fresh duration has no clock to bound it by, and
    is left out."""
    scen, states = _walk(name, **options)
    ctx = scen.context()
    checker = ctx.checker
    clipped = kept = 0
    for s in states:
        clock = concrete_or_none(s.clock)
        if clock is None:
            continue
        want = successors(scen.context(), s, False)
        for bound in (clock, clock + 1, clock + 10):
            got = _built(ctx, s, False, bound)
            assert [tid for tid, _ in got] == [tid for tid, _ in want]
            for (_, st), (tid, w) in zip(got, want):
                if st is None:
                    clipped += 1
                    assert feasible(checker, w, cmp_le(w.clock, bound)) is False
                    continue
                assert feasible(checker, st, cmp_lt(bound, st.clock)) is False
                if tid.cls in ("tick", "env"):
                    kept += 1
                    # pinning adds to the path condition, and to nothing else
                    st = copy_with(st, constraints=w.constraints)
                assert _exact(tid, st) == _exact(tid, w)
    assert clipped and kept


def _retimed(s):
    """`s` with every message in flight due one time unit later."""
    return copy_with(s, conns=tuple(
        copy_with(c, buffer=tuple(
            copy_with(m, min_timer=m.min_timer + 1, max_timer=m.max_timer + 1) for m in c.buffer))
        for c in s.conns))


def test_message_timers_split_only_the_entries_that_read_them(monkeypatch):
    calls = []
    machine_moves = por.machine_moves

    def counted(*args):
        calls.append(args[2])
        return machine_moves(*args)

    monkeypatch.setattr(por, "machine_moves", counted)
    scen, states = _walk("ptpc", steps=60)
    shared = split = 0
    for s in states:
        if not any(c.buffer for c in s.conns):
            continue
        t = _retimed(s)
        ctx = scen.context()
        for i, m in enumerate(s.machines):
            por._group(ctx, s, i, por._links(ctx, s))
            entry = ctx.moves[(m.mid, m.cfg, s.options)]
            level = entry.level if isinstance(entry, por._Reads) else por._NOTHING
            del calls[:]
            por._group(ctx, t, i, por._links(ctx, t))
            if level <= por._VALIDITY:
                assert calls == []
                shared += level == por._VALIDITY
            else:
                assert calls
                split += 1
        want = [_exact(tid, st) for tid, st in successors(scen.context(), t, False)]
        assert [_exact(tid, st) for tid, st in _built(ctx, t, False, WIDE)] == want
    assert shared and split


@pytest.mark.parametrize("name", MODELS)
def test_a_warm_context_keys_like_a_fresh_one(name):
    scen, states = _walk(name, seed=11)
    warm = scen.context()
    for por_on in (False, True):
        search(warm, scen.initial_state(por=por_on), bound=5)
    search(warm, scen.initial_state(clock_sep=True), bound=5)
    simulate(warm, scen.initial_state(), 40)
    assert warm.moves and warm.ticks and warm.links and warm.started
    for s in states:
        for por_on in (False, True):
            got = [_exact(tid, st) for tid, st in _built(warm, s, por_on, WIDE)]
            assert got == [_exact(tid, st) for tid, st in successors(scen.context(), s, por_on)]
