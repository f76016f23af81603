"""Sharing the renamed values of canonical keys must not change the keys.

`canonicalize(s, memo)` renames each value once per naming of its
variables, through a memo that lives as long as one search, so every key
that holds a value under one naming holds one renamed object.  Keys built
with a warm memo must equal keys built with a fresh one; the memo must
give one object per value and naming; a state without fresh variables
must skip the renaming; and a symbolic search must keep its memory peak
well under what it was before sharing.
"""

import dataclasses
import random
import tracemalloc

import pytest

from plcreach import bench, model
from plcreach.explorer import random_walk, search
from plcreach.model import canonicalize
from plcreach.scenario import ScenarioError
from plcreach.values import Cmp, Poly, bool_variables, copy_with, rename, variables

# (bundled model, walk length); all walked in symbolic mode
WALKS = [("query1", 40), ("ptpc", 40), ("therc", 30)]


def _renamed_parts(key):
    """Every Poly and Cmp with variables inside a canonical key, in a
    fixed order.

    All variables left in a key are renamed fresh variables, so these are
    exactly the values the renaming built.
    """
    stack = [key]
    while stack:
        v = stack.pop()
        if isinstance(v, Poly):
            if v.variables():
                yield v
        elif isinstance(v, Cmp):
            if bool_variables(v):
                yield v
            stack.append(v.lhs)
        elif isinstance(v, tuple):
            stack.extend(v)
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            stack.extend(getattr(v, f.name) for f in dataclasses.fields(v))


@pytest.mark.parametrize("name, steps", WALKS, ids=[w[0] for w in WALKS])
def test_search_memo_builds_the_same_keys_and_renames_each_value_once(name, steps):
    scen = bench.load(name)
    s0 = scen.initial_state(mode="symbolic")
    walk = random_walk(scen.context(), s0, steps, random.Random(5))
    assert len(walk) == steps
    memo = {}
    keys = []
    for _, s in walk:
        key = canonicalize(s, memo)
        assert key == canonicalize(s)
        keys.append(key)
    # Each renaming the memo holds is the value under those new names.
    renamings = [(k, got) for k, got in memo.items() if isinstance(k, tuple)]
    assert renamings
    for (v, new), got in renamings:
        assert got == rename(v, {n: m for n, m in zip(variables(v), new) if m is not None})
    # Built again with the warm memo, every key gives back the very
    # renamed objects it holds, and some are held by more than one key.
    first_owner = {}  # id of a renamed value -> index of the first key holding it
    shared_across_keys = 0
    for i, ((_, s), key) in enumerate(zip(walk, keys)):
        again = canonicalize(s, memo)
        assert again == key
        parts = list(_renamed_parts(key))
        assert all(a is b for a, b in zip(_renamed_parts(again), parts, strict=True))
        for part in parts:
            shared_across_keys += first_owner.setdefault(id(part), i) != i
    assert shared_across_keys > 0


def test_state_without_fresh_variables_skips_the_renaming_pass(monkeypatch):
    # The pass being skipped must have had nothing to do: on random walks of
    # every bundled model, in both modes, a state whose fresh-variable
    # counter is zero has no fresh variable and no live constraint.
    checked = 0
    for name in bench.all_names():
        scen = bench.load(name)
        for mode in ("concrete", "symbolic"):
            try:
                s0 = scen.initial_state(mode=mode)
            except ScenarioError:
                continue  # free inputs need symbolic mode
            for seed in (1, 2):
                walk = random_walk(scen.context(), s0, 25, random.Random(seed))
                for s in [s0] + [st for _, st in walk]:
                    if s.fresh_counter == 0:
                        assert canonicalize(copy_with(s, fresh_counter=1)) == canonicalize(s)
                        checked += 1
    assert checked > 500

    def unexpected(*args):
        raise AssertionError("renaming pass ran on a state without fresh variables")

    monkeypatch.setattr(model, "_renaming", unexpected)
    monkeypatch.setattr(model, "_live_slice", unexpected)
    scen = bench.load("ptpc")
    canonicalize(scen.initial_state(mode="symbolic"))
    walk = random_walk(scen.context(), scen.initial_state(), 25, random.Random(1))
    for _, s in walk:
        canonicalize(s)


def test_symbolic_search_memory_peak():
    # The first 1,000 states of the symbolic POR search of `query1` at
    # bound 5 (the size of one symbolic-por benchmark query, which has
    # 1,529 states).  Traced peaks: 8.9 MB when every key held its own
    # renamed copies, 3.3 MB with them interned, 2.0 MB with path
    # conditions kept irredundant.  The bound sits between the first two.
    # The search is capped because tracing allocations makes it about four
    # times slower: the whole search took 16 s traced.
    scen = bench.load("query1")
    ctx = scen.context()
    tracemalloc.start()
    try:
        r = search(ctx, scen.initial_state(por=True), bound=5, max_states=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.states_explored, r.transitions_fired) == (1000, 1154)
    assert peak < 5 * 2**20
