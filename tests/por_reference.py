"""The successor loop that `por.successors` replaced for the states it
does not memoise, and the check that the present loop gives the same
successors.

Before one loop enumerated every state, a symbolic state, or a concrete
one with fresh variables, took the loop below: each machine's moves from
`comm.machine_moves`, each chained by `por._chain_internal` and joined to
a whole system state (`with_cfg`), then the ticks and envTicks as the
rules make them.  The present loop makes each chain a delta of what it
changed and builds the successor from its parent (`model.moved_state`).

`differences(name, mode, seed, steps)` walks a bundled model at random,
compares both loops on every state of the walk, with the reduction on
and off, `first` on and off, and with and without a search bound, and
lists every state and setting on which they differ: in any transition
id, canonical key, path condition, `msg_seq`, fresh-variable counter or
exact links (message identities and the classes of their data).  In
concrete mode each state of the walk gets a fresh-variable counter of
one, which keeps it out of the memo tables.  It needs no test runner:

    PYTHONPATH=src python tests/por_reference.py [SEED] [STEPS]
"""

import random
import sys

from plcreach import bench
from plcreach.comm import machine_moves
from plcreach.explorer import random_walk
from plcreach.model import canonicalize, exact_links
from plcreach.por import _chain_internal
from plcreach.por import successors as present
from plcreach.timed import env_tick, start_variants, tick_concrete, tick_symbolic
from plcreach.values import copy_with

# far past every clock the walks reach: nothing is cut
WIDE = 1000


def with_cfg(s, mid, cfg):
    machines = tuple(copy_with(x, cfg=cfg) if x.mid == mid else x for x in s.machines)
    return copy_with(s, machines=machines, ticked=False)


def _joined(ctx, v):
    """The chain of move `v` as a (TransitionId, state) pair."""
    tid, shared, cfg, _ = _chain_internal(ctx, v)
    return tid, with_cfg(shared, v.mid, cfg)


def successors(ctx, s, por=None, *, first=False):
    """The earlier loop, for any state; it reads no memo table."""
    if por is None:
        por = s.options.por
    starts = start_variants(ctx, s)
    if starts and (por or first):
        return starts
    per = []
    for m in s.machines:
        moves = machine_moves(ctx, s, m.mid)
        if moves and (first or (por and all(v.private for v in moves))):
            return [_joined(ctx, v) for v in moves]
        per.append(moves)
    out = list(starts)
    for moves in per:
        out.extend(_joined(ctx, v) for v in moves)
    out.extend((tick_symbolic if s.options.symbolic else tick_concrete)(ctx, s))
    out.extend(env_tick(ctx, s))
    return out


def form(succ) -> list:
    """What the comparison holds of each successor; a successor that is
    not a whole system state (None, for a tick past a bound) stays as it
    came, so that it differs from every state."""
    return [(tid, canonicalize(st), st.constraints, st.msg_seq, st.fresh_counter,
             exact_links(st)) if hasattr(st, "machines") else (tid, st)
            for tid, st in succ]


def walk(scen, mode: str, seed: int, steps: int) -> list:
    """The initial state of `scen` in `mode` and the states of a seeded
    random walk from it; in concrete mode each with a fresh-variable
    counter of one."""
    s0 = scen.initial_state(mode=mode)
    states = [s0] + [s for _, s in random_walk(scen.context(), s0, steps, random.Random(seed))]
    if mode == "concrete":
        states = [copy_with(s, fresh_counter=1) for s in states]
    return states


def compare(make_ctx, states: list, tally: dict = None) -> list:
    """(state index, por, first, bound, reference's form, present form)
    for every state and setting on which the two loops differ.  Each loop
    keeps one context, `make_ctx()`, across all states.  `tally`, if
    given, counts the settings compared, and the reference's successors
    by class and by what they changed of their parent."""
    ref_ctx, ctx = make_ctx(), make_ctx()
    out = []
    for k, s in enumerate(states):
        for por in (False, True):
            for first in (False, True):
                want = form(successors(ref_ctx, s, por, first=first))
                for bound in (None, WIDE):
                    got = form(present(ctx, s, por, first=first, bound=bound))
                    if got != want:
                        out.append((k, por, first, bound, want, got))
                if tally is not None:
                    _count(tally, s, want)
    return out


def _count(tally: dict, s, want: list):
    tally["settings"] = tally.get("settings", 0) + 1
    links = exact_links(s)
    for tid, _, constraints, msg_seq, _, exact in want:
        for what, changed in (("", True),
                              (" constraints", constraints != s.constraints),
                              (" msg_seq", msg_seq != s.msg_seq),
                              (" links", exact != links)):
            if changed:
                tally[tid.cls + what] = tally.get(tid.cls + what, 0) + 1


def differences(name: str, mode: str, seed: int = 0, steps: int = 60, tally: dict = None) -> list:
    """`compare` on a seeded random walk of bundled model `name`."""
    scen = bench.load(name)
    return compare(scen.context, walk(scen, mode, seed, steps), tally)


CASES = (("query1", "symbolic"), ("commdemo", "symbolic"), ("commdemo", "concrete"))

if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 60
    failed = False
    for name, mode in CASES:
        tally: dict = {}
        diffs = differences(name, mode, seed, steps, tally)
        for k, por, first, bound, want, got in diffs[:3]:
            print(f"{name} ({mode}) state {k}, por={por}, first={first}, bound={bound}:\n"
                  f"  reference: {want}\n  present:   {got}")
        print(f"{name} ({mode}), seed {seed}: "
              f"{', '.join(f'{v} {k}' for k, v in sorted(tally.items()))}; "
              f"{len(diffs)} differing")
        failed = failed or bool(diffs)
    sys.exit(1 if failed else 0)
