"""Deterministic simulation of the consolidated models up to a horizon."""

from fractions import Fraction

import pytest

from plcreach import bench
from plcreach.explorer import replay, simulate
from plcreach.model import canonicalize
from plcreach.por import successors
from plcreach.timed import diagnose_stuck

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
