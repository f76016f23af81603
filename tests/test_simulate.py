"""Deterministic simulation of the consolidated models up to a horizon."""

import random
import re
from fractions import Fraction

import pytest

from plcreach import bench
from plcreach.explorer import random_walk, replay, simulate
from plcreach.model import ModelError, canonicalize
from plcreach.por import successors
from plcreach.scenario import scenario_from_dict
from plcreach.st import PouTable, parse_file
from plcreach.timed import diagnose_stuck, env_tick_apply, tick_apply
from plcreach.values import copy_with

MODELS = ("ptp", "rv", "ther", "swat1")


def _run(name, until, clock_sep=False):
    scen = bench.load(name)
    s0 = scen.initial_state(clock_sep=clock_sep)
    out = simulate(scen.context(), s0, until)
    assert out[0] == (None, s0)
    cycles = sum(1 for tid, _ in out[1:] if tid.cls == "start")
    return scen, s0, out, cycles


@pytest.mark.parametrize("clock_sep", [False, True], ids=["joint", "clock-sep"])
@pytest.mark.parametrize("name", MODELS)
def test_simulation_reaches_the_horizon_and_replays(name, clock_sep):
    until = Fraction(200)
    scen, s0, out, cycles = _run(name, until, clock_sep)
    final = out[-1][1]
    assert final.clock == until
    assert cycles == until / s0.machines[0].cycle_time
    if clock_sep:
        assert any(tid.cls == "env" for tid, _ in out[1:])
    end = replay(scen.context(), s0, [tid for tid, _ in out[1:]])
    assert canonicalize(end) == canonicalize(final)


@pytest.mark.parametrize("name", MODELS)
def test_horizon_inside_a_tick_clips_the_last_tick(name):
    until = Fraction(195)
    for clock_sep in (False, True):
        scen, s0, out, cycles = _run(name, until, clock_sep)
        final = out[-1][1]
        assert final.clock == until
        # The scan starting at clock 190 runs; the step after it that
        # moves the global clock is cut to 5: the tick, or with clock
        # separation the envTick that follows the scan side's full tick.
        assert cycles == 20
        last = out[-1][0]
        assert last.cls == ("env" if clock_sep else "tick")
        assert last.key == (Fraction(5),)
        assert out[-2][1].clock == 190
        # The clipped step is taken by its duration, so the whole path
        # replays.
        end = replay(scen.context(), s0, [tid for tid, _ in out[1:]])
        assert canonicalize(end) == canonicalize(final)


def test_horizon_in_the_past_rejected():
    scen = bench.load("ptp")
    s0 = scen.initial_state()
    with pytest.raises(ValueError, match="until must not lie before the initial clock 0"):
        simulate(scen.context(), s0, -5)
    later = simulate(scen.context(), s0, 15)[-1][1]
    with pytest.raises(ValueError, match="until"):
        simulate(scen.context(), later, 10)
    assert simulate(scen.context(), later, later.clock) == [(None, later)]


@pytest.mark.parametrize(
    "name, a, b", [("ptpc", "TANK1", "TANK2"), ("therc", "ROOM1", "ROOM2")]
)
def test_time_lock_is_diagnosed(name, a, b):
    # A message still in its link at its latest delivery time stops time.
    scen, s0, out, _ = _run(name, 200)
    stuck = out[-1][1]
    assert stuck.clock == 40
    assert successors(scen.context(), stuck, por=False) == []
    assert sorted(diagnose_stuck(stuck)) == [
        f"message {a}->{b} expired undelivered",
        f"message {b}->{a} expired undelivered",
    ]


# -- the step cap --------------------------------------------------------------


def test_a_run_that_reaches_the_horizon_at_the_cap_settles():
    scen = bench.load("ptp")
    ctx = scen.context()
    s0 = scen.initial_state()
    out = simulate(ctx, s0, 30, max_steps=10)
    assert len(out) == 10 and out[-1][1].clock == 30  # nine steps
    assert simulate(ctx, s0, 30, max_steps=9) == out
    with pytest.raises(ModelError, match="did not settle within 8 steps"):
        simulate(ctx, s0, 30, max_steps=8)


@pytest.mark.parametrize("max_steps", [True, False, 0, -1, 2.5, "3", None])
def test_step_cap_must_be_a_positive_int(max_steps):
    scen = bench.load("ptp")
    s0 = scen.initial_state()
    with pytest.raises(ValueError, match="max_steps must be a positive integer"):
        simulate(scen.context(), s0, s0.clock, max_steps=max_steps)


@pytest.mark.parametrize("until", [True, False])
def test_a_boolean_horizon_is_rejected(until):
    scen = bench.load("ptp")
    with pytest.raises(ValueError, match=f"until must be a number, got {until}"):
        simulate(scen.context(), scen.initial_state(), until)


def test_a_symbolic_state_is_rejected():
    scen = bench.load("ptp")
    with pytest.raises(ValueError, match="concrete states only, got mode 'symbolic'"):
        simulate(scen.context(), scen.initial_state(mode="symbolic"), 35)


# -- the policy, against a run that builds every successor -------------------

# Failure branches rank below their success twins.
_COST = {"conFail": 1, "sendDataFail": 1, "rcvNo": 1, "rcvFail": 2}


def _reference_pick(ctx, succ, s, until):
    """The simulation policy over the full unreduced successor list."""
    starts = [p for p in succ if p[0].cls == "start"]
    if starts:
        return starts[0]
    machine = [p for p in succ if p[0].cls in ("internal", "comm")]
    if machine:
        first = machine[0][0].mid
        mine = [p for p in machine if p[0].mid == first]
        return min(mine, key=lambda p: _COST.get(p[0].label, 0))
    timed = [p for p in succ if p[0].cls in ("tick", "env")]
    if not timed:
        return None
    tid, t = timed[0]
    clocked = "env" if s.options.clock_sep else "tick"
    left = until - s.clock
    if tid.cls != clocked or tid.key[0] <= left:
        return tid, t
    clipped = copy_with(tid, key=(left,))
    return clipped, (env_tick_apply if clocked == "env" else tick_apply)(ctx, s, left)


def _reference_simulate(ctx, s0, until):
    s = s0
    out = [(None, s0)]
    while s.clock < until:
        pick = _reference_pick(ctx, successors(ctx, s, por=False), s, until)
        if pick is None:
            break
        out.append(pick)
        s = pick[1]
        assert len(out) < 10_000
    return out


def _canonical(run):
    return [(tid, canonicalize(s)) for tid, s in run]


@pytest.mark.parametrize("name", bench.all_names())
def test_simulation_builds_the_step_the_full_enumeration_picks(name):
    # 95 ends on a whole tick and 97 clips one; the networked models
    # stop earlier, at the time-lock.  A connect that may fail puts a
    # failure branch beside its success twin.
    scen = bench.load(name)
    for clock_sep, reliable in ((False, None), (True, None), (False, False)):
        s0 = scen.initial_state(mode="concrete", clock_sep=clock_sep, reliable_connect=reliable)
        for until in (95, 97):
            got = simulate(scen.context(), s0, until)
            assert _canonical(got) == _canonical(_reference_simulate(scen.context(), s0, until))


def _group(tid):
    if tid.cls in ("internal", "comm"):
        return tid.mid
    return "time" if tid.cls in ("tick", "env") else tid.cls


@pytest.mark.parametrize("name", bench.all_names())
def test_first_is_the_first_group_of_the_full_enumeration(name):
    scen = bench.load(name)
    ctx = scen.context()
    for mode in ("concrete", "symbolic"):
        s0 = scen.initial_state(mode=mode)
        for _, s in [(None, s0)] + random_walk(scen.context(), s0, 20, random.Random(name)):
            full = successors(ctx, s, por=False)
            want = [p for p in full if _group(p[0]) == _group(full[0][0])] if full else []
            # the first group is a prefix of the full list
            assert full[:len(want)] == want
            for por in (False, True):
                got = successors(ctx, s, por=por, first=True)
                assert type(got) is list
                assert _canonical(got) == _canonical(want)


@pytest.mark.parametrize(
    "decl, stmt, message",
    [
        ("b : BOOL;", "b := isConnected(5);", "isConnected: partner must be a name, got 5"),
        ("s : STRING;", "s := thisBlock;", "runtime failure: thisBlock outside a block body"),
        ("b : BOOL;", "b := 1 OR 2;", "runtime failure: OR expects booleans, got 1, 2"),
    ],
    ids=["partner-a-number", "thisBlock-in-a-program", "OR-of-numbers"],
)
def test_a_runtime_failure_names_its_machine(decl, stmt, message):
    src = f"PROGRAM P\nVAR\n  {decl}\nEND_VAR\n{stmt}\nEND_PROGRAM\n"
    doc = {"machines": [{"id": "m", "programs": ["P"], "cycleTime": 10}]}
    scen = scenario_from_dict(doc, PouTable.from_units(parse_file(src)))
    with pytest.raises(ModelError, match=f"^machine m: {re.escape(message)}$"):
        simulate(scen.context(), scen.initial_state(), 20)
