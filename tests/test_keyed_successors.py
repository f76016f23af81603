"""A search's successors come keyed before they are built.

With a bound, `por.successors` gives each chained machine move of a
concrete state without fresh variables as a `por.Delta`: the canonical
key of the successor, made from the key pieces its parent keeps, and a
way to build it.  A time step that ends past the bound comes as None.
The search builds only the successors whose keys it has not stored.  So
the keys must be the keys of the states the deltas build, and those
states the ones the rules make, message identities and the classes of
values included.

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
from plcreach.model import canonicalize, exact_links
from plcreach.por import Delta, successors
from plcreach.values import copy_with

MODELS = ["ptpc", "rvc", "therc", "commdemo"]
# far past every clock the walks reach: nothing is cut
WIDE = 1000


def _walk(name, steps=40, seed=7):
    scen = bench.load(name)
    s0 = scen.initial_state()
    return scen, [s0] + [s for _, s in random_walk(scen.context(), s0, steps, random.Random(seed))]


def _exact(tid, s):
    return (tid, canonicalize(s), s.msg_seq, exact_links(s))


def _built(ctx, s, por_on, bound):
    """The keyed enumeration of `s`, each delta checked against its key
    and built; a step past the bound stays None."""
    out = []
    for tid, st in successors(ctx, s, por_on, bound=bound):
        if isinstance(st, Delta):
            built = st.state()
            assert st.key == canonicalize(built)
            st = built
        out.append((tid, st))
    return out


@pytest.mark.parametrize("name", MODELS)
def test_each_delta_builds_the_state_the_rules_make(name):
    scen, states = _walk(name)
    ctx = scen.context()
    deltas = 0
    for s in states:
        for por_on in (False, True):
            keyed = successors(ctx, s, por_on, bound=WIDE)
            deltas += sum(isinstance(st, Delta) for _, st in keyed)
            got = [_exact(tid, st) for tid, st in _built(ctx, s, por_on, WIDE)]
            want = [_exact(tid, st) for tid, st in successors(scen.context(), s, por_on)]
            assert got == want
    assert deltas > len(states)


@pytest.mark.parametrize("name", MODELS)
def test_a_step_past_the_bound_is_enabled_but_not_built(name):
    scen, states = _walk(name)
    ctx = scen.context()
    clipped = 0
    for s in states:
        bound = s.clock + 1
        got = _built(ctx, s, False, bound)
        want = successors(scen.context(), s, False)
        assert [tid for tid, _ in got] == [tid for tid, _ in want]
        for (_, st), (tid, w) in zip(got, want):
            if st is None:
                clipped += 1
                assert tid.cls == "tick" and w.clock > bound
            else:
                assert st.clock <= bound and _exact(tid, st) == _exact(tid, w)
    assert clipped


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
