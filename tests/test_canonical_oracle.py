"""The one-walk canonical key against the two-walk form it replaced.

`model.canonicalize` names each fresh variable when its walk first meets
it and renames every value as it visits it.  The reference below is the
earlier form: one walk fixes the first-use order of the fresh variables
and the live constraint slice, and a second walk renames every field.
The two must give equal keys for every state, with a search's shared
pool and without one.
"""

import random

import pytest

from plcreach import bench, explorer
from plcreach.explorer import random_walk, search
from plcreach.kmachine import config_key, config_vars
from plcreach.model import _is_fresh, _masked, canonicalize
from plcreach.scenario import ScenarioError
from plcreach.values import ckey_of, copy_with, rename, variables


def _reference_order(s, memo):
    """First-use order of fresh variables, plus the live constraint slice
    as (constraint, (sort key, variables)) pairs in canonical order."""
    order, seen = [], set()

    def note(names):
        for n in names:
            if n not in seen and _is_fresh(n):
                seen.add(n)
                order.append(n)

    for m in s.machines:
        note(variables(m.timer))
        for _, v in m.state:
            note(variables(v))
        note(config_vars(m.cfg))
    for c in s.conns:
        for msg in c.buffer:
            note(variables(msg.data))
            note(variables(msg.min_timer))
            note(variables(msg.max_timer))
    note(variables(s.clock))
    live = set(order)

    def facts(c):
        if c._ckey not in memo:
            memo[c._ckey] = ((repr(_masked(c)), c._ckey), variables(c))
        return memo[c._ckey]

    remaining = [(c, facts(c)) for c in s.constraints]
    kept = []
    changed = True
    while changed:
        changed = False
        still = []
        for cf in remaining:
            if not live.isdisjoint(cf[1][1]):
                kept.append(cf)
                live.update(cf[1][1])
                changed = True
            else:
                still.append(cf)
        remaining = still
    kept.sort(key=lambda cf: cf[1][0])
    for _, (_, cvars) in kept:
        note(cvars)
    return order, kept


def reference_canonicalize(s):
    pool = {}
    order, kept = _reference_order(s, {}) if s.fresh_counter else ((), ())
    names = {n: f"v{i}" for i, n in enumerate(order)}

    def ren(v):
        return rename(v, names, pool) if names and variables(v) else v

    machines_key = tuple(
        (
            m.mid,
            config_key(m.cfg, names, pool),
            ren(m.timer),
            m.env_timer,
            tuple((nm, ren(v)) for nm, v in m.state),
            m.cycle_time,
            m.cycle_index,
        )
        for m in s.machines
    )
    conns_key = tuple(
        (
            c.pair,
            c.valid,
            c.delay_lo,
            c.delay_hi,
            tuple(
                sorted(
                    (
                        (
                            msg.sender,
                            msg.receiver,
                            msg.send_fb,
                            msg.recv_fb,
                            ren(msg.data),
                            ren(msg.min_timer),
                            ren(msg.max_timer),
                        )
                        for msg in c.buffer
                    ),
                    key=repr,
                )
            ),
        )
        for c in s.conns
    )
    constraints_key = tuple(sorted((ren(c) for c, _ in kept), key=ckey_of))
    return (machines_key, conns_key, ren(s.clock), constraints_key, s.ticked)


def _walked_states():
    """Every state of 40-step random walks of every bundled model, in both
    modes, at seeds 0 to 5."""
    for name in bench.all_names():
        scen = bench.load(name)
        ctx = scen.context()
        for mode in ("concrete", "symbolic"):
            try:
                s0 = scen.initial_state(mode=mode)
            except ScenarioError:
                continue  # free inputs need symbolic mode
            for seed in range(6):
                yield s0
                for _, s in random_walk(ctx, s0, 40, random.Random(seed)):
                    yield s


def _dealt_again(s, rng):
    """`s` with the values of its timers, plant states, stores, message
    fields and clock dealt out again at random over the same places.

    No rule builds such a state, but the walk meets its fresh variables in
    orders that the bundled models never produce: in a store before the
    machine's timer, in the clock before a message, in a message's data
    after its timers, and so on.
    """
    values = []
    for m in s.machines:
        values += [m.timer, *(v for _, v in m.state), *m.cfg.store]
    values += [v for c in s.conns for msg in c.buffer for v in (msg.data, msg.min_timer, msg.max_timer)]
    values.append(s.clock)
    rng.shuffle(values)
    it = iter(values)
    machines = tuple(
        copy_with(
            m,
            timer=next(it),
            state=tuple((nm, next(it)) for nm, _ in m.state),
            cfg=copy_with(m.cfg, store=tuple(next(it) for _ in m.cfg.store)),
        )
        for m in s.machines
    )
    conns = tuple(
        copy_with(
            c,
            buffer=tuple(
                copy_with(msg, data=next(it), min_timer=next(it), max_timer=next(it))
                for msg in c.buffer
            ),
        )
        for c in s.conns
    )
    return copy_with(s, machines=machines, conns=conns, clock=next(it))


def test_random_walk_keys_match_the_two_walk_form():
    pool = {}
    rng = random.Random(0)
    checked = fresh = 0
    for s in _walked_states():
        variants = [s, _dealt_again(s, rng)] if s.fresh_counter else [s]
        for v in variants:
            want = reference_canonicalize(v)
            assert canonicalize(v, pool) == want
            assert canonicalize(v) == want
        checked += 1
        fresh += s.fresh_counter > 0
    assert checked > 5000 and fresh > 1000


@pytest.mark.parametrize("name, bound", [("query1", 5), ("commdemo", 20)])
def test_search_keys_match_the_two_walk_form(monkeypatch, name, bound):
    # Every key a symbolic POR search builds, with its own pool, equals
    # the reference key of the same state.
    checked = []
    one_walk = explorer.canonicalize

    def compared(s, pool=None):
        key = one_walk(s, pool)
        assert key == reference_canonicalize(s)
        checked.append(s.fresh_counter)
        return key

    monkeypatch.setattr(explorer, "canonicalize", compared)
    scen = bench.load(name)
    search(scen.context(), scen.initial_state(mode="symbolic", por=True), bound=bound)
    assert len(checked) > 1000 and any(checked)
