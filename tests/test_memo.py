"""The memo tables of the machine-local semantics must not change the graph.

`RuleCtx.steps` and `RuleCtx.runs` hold step outcomes and whole private
runs per configuration.  A context warmed by a search must enumerate the
same transitions, to the same states, as a fresh one; and a search must
not step the same configuration over and over.
"""

import random
from collections import Counter

import pytest

from plcreach import bench, comm
from plcreach.explorer import random_walk, search
from plcreach.model import canonicalize
from plcreach.por import successors

# (bundled model, search bound used to warm the context)
WALKS = [("ptpc", 5), ("rvc", 5), ("therc", 5), ("commdemo", 10)]


def _enumerated(ctx, s, por):
    return [(tid, canonicalize(st)) for tid, st in successors(ctx, s, por=por)]


@pytest.mark.parametrize("name, bound", WALKS, ids=[w[0] for w in WALKS])
def test_warm_context_enumerates_like_a_fresh_one(name, bound):
    scen = bench.load(name)
    s0 = scen.initial_state()
    warm = scen.context()
    for por in (False, True):
        search(warm, s0, bound=bound, por=por)
    assert warm.steps and warm.runs
    walk = random_walk(scen.context(), s0, 40, random.Random(3))
    assert len(walk) > 20
    for _, s in walk:
        for por in (False, True):
            assert _enumerated(warm, s, por) == _enumerated(scen.context(), s, por)


def test_search_steps_each_configuration_about_once(monkeypatch):
    calls = Counter()
    real_step = comm.step

    def counted(table, cfg):
        calls[cfg] += 1
        return real_step(table, cfg)

    monkeypatch.setattr(comm, "step", counted)
    scen = bench.load("ptpc")
    r = search(scen.context(), scen.initial_state(por=False), bound=10, por=False)
    assert (r.states_explored, r.transitions_fired) == (6601, 15504)
    # Without the memo this search made 100,994 calls on these 1,182
    # configurations.  `machine_moves` steps a configuration at most once,
    # and each private run is walked at most once.  The configurations a
    # run passes through are not kept (a long simulation would hold all of
    # them), so one that several runs reach is stepped once per run: 1,250
    # calls here.
    assert len(calls) == 1182
    assert sum(calls.values()) <= 1.1 * len(calls)
