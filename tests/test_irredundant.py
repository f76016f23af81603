"""Path conditions kept irredundant.

`values.irredundant` drops each inequality atom that one other kept
inequality atom and the conjunction's sign atoms imply; `symbolic.feasible`,
`timed.start_scans` and `model._substitute_state` call it on every path
condition they form.  These tests check that every dropped atom
follows from the kept ones, that pruning twice prunes nothing more, and
that a pruned search walks the unpruned graph with its path conditions
pruned: the same canonical keys, verdicts and endpoints.  The unpruned
search is the same search with `irredundant` patched to the identity.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcreach import bench, explorer, model, symbolic, timed
from plcreach.explorer import random_walk, search
from plcreach.model import Options, canonicalize
from plcreach.solver import solve_linear
from plcreach.values import (
    Poly,
    band,
    bnot,
    bor,
    cmp_eq,
    cmp_le,
    cmp_lt,
    conjuncts,
    copy_with,
    irredundant,
)

from test_system import diamond_system

x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")


def _unpruned(monkeypatch):
    """Every path condition kept as `band` builds it."""
    for mod in (symbolic, model, timed):
        monkeypatch.setattr(mod, "irredundant", lambda cond, memo=None: cond)


def _dropped(cond) -> tuple:
    """The conjuncts of `cond` that pruning drops, and the pruned form."""
    kept = irredundant(cond)
    return tuple(a for a in conjuncts(cond) if a not in conjuncts(kept)), kept


def _implied(kept, a) -> bool:
    return solve_linear(band(kept, bnot(a))) is None


@pytest.mark.parametrize("weaker, stronger, signs", [
    (cmp_le(0, x), cmp_lt(0, x), ()),  # -x <= 0 falls to -x < 0
    (cmp_le(x, 5), cmp_lt(x, 5), ()),  # of two atoms over one form, the strict one stays
    (cmp_le(x, 20), cmp_le(x, 10), ()),  # a constant-only difference
    (cmp_le(x, 5), cmp_le(x + y, 5), (cmp_lt(0, y),)),
    (cmp_lt(x, 5), cmp_le(x + y, 5), (cmp_lt(0, y),)),  # y > 0 makes it strict
    (cmp_le(x + z, 5), cmp_le(x + y, 4), (cmp_lt(0, y), cmp_lt(z, 0))),
    (cmp_lt(0, x), cmp_lt(y, x), (cmp_lt(0, y),)),  # a sign atom can fall
])
def test_an_implied_atom_falls(weaker, stronger, signs):
    cond = band(weaker, stronger, *signs)
    assert irredundant(cond) == band(stronger, *signs)
    assert _implied(band(stronger, *signs), weaker)


@pytest.mark.parametrize("atoms", [
    (cmp_le(x, 5), cmp_le(x + y, 5)),  # y has no sign atom
    (cmp_le(x, 5), cmp_le(x + y - z, 5), cmp_lt(0, y), cmp_lt(0, z)),  # mixed signs
    (cmp_le(x, 5), cmp_le(x + y * y, 5), cmp_lt(0, y)),  # y*y is not signed
    (cmp_le(x, 5), cmp_le(x + 2 * y, 5), cmp_le(0, y)),  # only a strict atom signs
])
def test_an_atom_without_such_a_reason_stays(atoms):
    cond = band(*atoms)
    assert irredundant(cond) == cond


def test_pruning_keeps_what_it_is_not_about():
    cond = band(cmp_le(x, 5), cmp_le(x, 10), cmp_eq(y, 1), bor(cmp_eq(x, 1), cmp_eq(x, 2)))
    pruned = irredundant(cond)
    assert set(conjuncts(cond)) - set(conjuncts(pruned)) == {cmp_le(x, 10)}
    memo = {}
    assert irredundant(cond, memo) is irredundant(cond, memo) == pruned
    assert memo == {cond: pruned}


def test_both_sign_atoms_of_one_variable_count():
    # An unsatisfiable conjunction can hold `-x < 0` and `x < 0`.  When the
    # later of the two falls, the other must still sign `x`, or the pruned
    # form would prune further.
    cond = band(cmp_lt(0, x), cmp_lt(x, 0), cmp_lt(0, y), cmp_lt(y, 0), cmp_le(x, y))
    kept = irredundant(cond)
    assert kept == band(cmp_lt(0, x), cmp_lt(y, 0), cmp_le(x, y))
    assert irredundant(kept) == kept


def _atom(coeffs, k, strict):
    lhs = Poly.const(k) + sum((c * v for c, v in zip(coeffs, (x, y, z)) if c), Poly.const(0))
    return cmp_lt(lhs, 0) if strict else cmp_le(lhs, 0)


atoms = st.builds(
    _atom, st.lists(st.integers(-2, 2), min_size=3, max_size=3), st.integers(-4, 4), st.booleans()
)
signs = st.sampled_from([cmp_lt(0, x), cmp_lt(x, 0), cmp_lt(0, y), cmp_lt(y, 0), cmp_lt(0, z)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(atoms, signs), min_size=2, max_size=7))
def test_every_dropped_atom_follows_from_the_kept_ones(parts):
    cond = band(*parts)
    if isinstance(cond, bool):
        return
    dropped, kept = _dropped(cond)
    assert all(_implied(kept, a) for a in dropped)
    assert irredundant(kept) == kept


def _walks():
    """The states of unpruned 30-step random walks of `query1` and
    `commdemo`, and of the symbolic `diamond_system()`, at seeds 0 to 3."""
    starts = []
    for name in ("query1", "commdemo"):
        scen = bench.load(name)
        starts.append((scen.context, scen.initial_state(mode="symbolic")))
    starts.append((lambda: diamond_system(Options(mode="symbolic"))[0],
                   diamond_system(Options(mode="symbolic"))[1]))
    for ctx, s0 in starts:
        for seed in range(4):
            for _, s in random_walk(ctx(), s0, 30, random.Random(seed)):
                yield s


def test_walked_path_conditions_lose_only_implied_atoms(monkeypatch):
    _unpruned(monkeypatch)
    checked = fell = 0
    for s in _walks():
        dropped, kept = _dropped(band(*s.constraints))
        for a in dropped:
            assert _implied(kept, a)
        assert irredundant(kept) == kept
        checked += 1
        fell += len(dropped)
    assert checked > 200 and fell > 200


def _keys(monkeypatch, name, bound, pruned):
    """The search's result and the states it keyed."""
    states = []
    keyed = explorer.canonicalize

    def recorded(s, memo=None):
        states.append(s)
        return keyed(s, memo)

    with monkeypatch.context() as m:
        m.setattr(explorer, "canonicalize", recorded)
        if not pruned:
            _unpruned(m)
        scen = bench.load(name)
        r = search(scen.context(), scen.initial_state(mode="symbolic", por=True), bound=bound)
    return r, states


@pytest.mark.parametrize("name, bound", [("query1", 5), ("commdemo", 20)])
def test_the_pruned_search_walks_the_pruned_graph(monkeypatch, name, bound):
    on, on_states = _keys(monkeypatch, name, bound, True)
    off, off_states = _keys(monkeypatch, name, bound, False)
    memo = {}
    keys_on = {canonicalize(s, memo) for s in on_states}
    keys_off = {
        canonicalize(copy_with(s, constraints=conjuncts(irredundant(band(*s.constraints)))), memo)
        for s in off_states
    }
    assert keys_on == keys_off
    assert len(keys_on) == on.states_explored < off.states_explored
    assert (on.verdict, on.endpoints) == (off.verdict, off.endpoints)
