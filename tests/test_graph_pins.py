"""Pinned graphs of bundled searches.

A refactor of the semantics that keeps every verdict can still change the
graph a search walks: a state split or merged by the canonical form, a
guard checked twice or not at all.  These searches pin the verdict, the
number of states, transitions and fresh solver queries, the number of
scan-cycle endpoints and the number of time-locked states, so that any
such change shows in the tier-1 run.  A tick past the bound is never
built, yet it is a successor: it must neither hide a time-lock nor
invent one.  A change that alters them on purpose updates the figures
here and says why.
"""

import dataclasses
from fractions import Fraction

import pytest

from plcreach import bench, explorer
from plcreach.explorer import NO_SOLUTION, SOLUTION_FOUND, search
from plcreach.por import Delta
from plcreach.values import Poly

from test_values import in_rat_form

# (model, mode, POR, bound, property,
#  (verdict, states, transitions, solver queries, endpoints, time-locks))
PINS = [
    ("ptpc", "concrete", False, 10, None, (NO_SOLUTION, 6601, 15504, 0, 5, 0)),
    ("rvc", "concrete", False, 10, None, (NO_SOLUTION, 6601, 15504, 0, 3, 0)),
    ("diamond", "concrete", False, 3, "x1 = 2 AND x2 = 0", (SOLUTION_FOUND, 11, 15, 0, 1, 0)),
    ("therc", "concrete", True, 20, None, (NO_SOLUTION, 1893, 2478, 0, 4, 9)),
    ("commdemo", "symbolic", True, 20, None, (NO_SOLUTION, 986, 1301, 117, 4, 1)),
    ("commdemo", "symbolic", False, 5, None, (NO_SOLUTION, 1357, 2579, 70, 1, 0)),
    ("query1", "symbolic", True, 5, None, (NO_SOLUTION, 1529, 1808, 29, 1, 0)),
    ("query1", "symbolic", True, 10, "pump1 = 1", (SOLUTION_FOUND, 529, 588, 12, 1, 0)),
]

PUMP1_WITNESS = [
    "start[('tank1', 'TANK1', 'input', 1),('tank2', 'TANK2', 'input', 0)]",
    "seq(tank1)[('call', ()),('if-true', ())]",
    "seq(tank2)[('call', ()),('if-true', ())]",
    "conSucc(tank1)[('TANK1', 'TANK2')]",
    "seq(tank1)[('if-false', ()),('conCheck', (True,)),('if-true', ()),"
    "('assign', ()),('assign', ()),('assign', ()),('assign', ()),"
    "('if-false', ()),('assign', ()),('call', ()),('if-false', ()),"
    "('conCheck', (True,)),('if-false', ()),('assign', ())]",
    "seq(tank2)[('conSucc', (('TANK1', 'TANK2'),)),('if-false', ()),"
    "('conCheck', (True,)),('if-true', ()),('assign', ()),('assign', ()),"
    "('assign', ()),('assign', ()),('if-false', ()),('assign', ()),"
    "('call', ()),('if-false', ()),('conCheck', (True,)),('if-false', ()),"
    "('assign', ())]",
    "sendData(tank1)[0]",
    "seq(tank1)[('assign', ()),('if-true', ()),('assign', ()),('assign', ()),"
    "('assign', ()),('call', ()),('if-false', ()),('conCheck', (True,)),"
    "('if-false', ()),('assign', ())]",
    "rcvNo(tank1)[('TANK1', 'TANK2')]",
    "seq(tank1)[('assign', ()),('if-false', ()),('assign', ()),('assign', ()),"
    "('assign', ()),('assign', ()),('assign', ())]",
    "tick[_d0]",
    "start[('tank1', 'TANK1', 'input', 0)]",
]

# m1 runs its whole scan and starts the next one alone, while m2's scan
# is still unfinished.
DIAMOND_WITNESS = ["seq(m1)[('assign', ()),('assign', ())]", "tick[3]", "start"]

WITNESSES = {"pump1 = 1": PUMP1_WITNESS, "x1 = 2 AND x2 = 0": DIAMOND_WITNESS}


@pytest.mark.parametrize(
    "name, mode, por, bound, prop, expected",
    PINS,
    ids=[f"{p[0]}-{p[1]}-{'por' if p[2] else 'full'}-{p[3]}" for p in PINS],
)
def test_search_graph_is_pinned(name, mode, por, bound, prop, expected):
    scen = bench.load(name)
    s0 = scen.initial_state(mode=mode, por=por)
    r = search(scen.context(), s0, prop, bound=bound)
    got = (r.verdict, r.states_explored, r.transitions_fired, r.smt_queries, len(r.endpoints),
           r.timelocks.count)
    assert got == expected
    if prop is not None:
        (w,) = r.witnesses
        assert [t.pretty() for t in w.path] == WITNESSES[prop]
        assert w.model == {}


def _numbers(v, seen: dict):
    """Every number inside a canonical key: tuples, records and polynomials
    are walked, each object once (`seen` keeps them alive, so no id is
    reused while the walk lasts)."""
    if isinstance(v, (bool, str)) or v is None:
        return
    if isinstance(v, (int, float, Fraction)):
        yield v
        return
    if id(v) in seen:
        return
    seen[id(v)] = v
    if isinstance(v, Poly):
        v = v.terms
    elif dataclasses.is_dataclass(v):
        v = tuple(getattr(v, f.name) for f in dataclasses.fields(v))
    for item in v:
        yield from _numbers(item, seen)


def test_concrete_keys_hold_no_integral_fraction(monkeypatch):
    """Every number in every canonical key of the concrete `ptpc` search is
    an int, or a Fraction that is not integral; none is a float.  The
    keys are the ones `canonicalize` makes and the ones the machine moves
    come keyed by (`por.Delta`)."""
    found, seen = [], {}
    canonicalize = explorer.canonicalize
    successors = explorer.successors

    def walked(s, memo=None):
        key = canonicalize(s, memo)
        found.extend(_numbers(key, seen))
        return key

    def keyed(ctx, s, **kwargs):
        succ = successors(ctx, s, **kwargs)
        for _, st in succ:
            if isinstance(st, Delta):
                found.extend(_numbers(st.key, seen))
        return succ

    monkeypatch.setattr(explorer, "canonicalize", walked)
    monkeypatch.setattr(explorer, "successors", keyed)
    name, mode, por, bound, _, expected = PINS[0]
    scen = bench.load(name)
    r = search(scen.context(), scen.initial_state(mode=mode, por=por), bound=bound)
    got = (r.verdict, r.states_explored, r.transitions_fired, r.smt_queries, len(r.endpoints),
           r.timelocks.count)
    assert got == expected
    assert len(found) > 1000
    assert [v for v in found if not in_rat_form(v)] == []
