"""The start rule runs from a plan compiled once, when the machine is built.

`timed.start_scans` reads what a machine's scan start publishes, senses
and feeds from the machine's `plan`, which `timed.compile_start` makes
from its static layout.  It must give the states the rule gave when it
worked all of that out again at every start, kept below as
`_reference_start_scans`: for every start variant on random walks of
every bundled model, in both modes, for free inputs, and for the initial
state of a preloaded scenario.
"""

import random
from fractions import Fraction
from functools import partial

import pytest

from plcreach import bench, timed
from plcreach.explorer import random_walk
from plcreach.kmachine import load_programs
from plcreach.model import InputSpec, Options, SystemState
from plcreach.symbolic import fresh_var
from plcreach.timed import _domain_of, start_scans, start_variants
from plcreach.values import EvalError, band, conjuncts, copy_with, irredundant

from test_system import ctx_for, make_machine, make_system, table_for


def _reference_start_scans(table, s, mids, chosen, memo=None):
    """Begin the next scan of each machine in `mids`, working out every
    machine's publish, sense and feed locations anew, and keeping
    nothing in `memo`."""
    for mid in mids:
        m = s.machine(mid)
        cfg = m.cfg
        envs = {p: (table.get(p), dict(env)) for p, env in m.programs}
        plant = dict(m.state)
        outputs = {d.name: cfg.read(env[d.name])
                   for pou, env in envs.values() for d in pou.outputs if d.name in plant}
        plant.update(outputs)
        writes = [(env[d.name], plant[d.name])
                  for pou, env in envs.values() for d in pou.inputs if d.name in plant]
        for spec in m.inputs:
            if spec.kind == "script":
                value = spec.values[min(m.cycle_index, len(spec.values) - 1)]
            elif spec.kind == "enumerate":
                value = chosen[(mid, spec)]
            else:
                s, value = fresh_var(s, "u")
                cond = band(*s.constraints, *_domain_of(spec, value))
                s = copy_with(s, constraints=conjuncts(irredundant(cond)))
            writes.append((envs[spec.prog][1][spec.var], value))
        m = copy_with(
            m.with_state(outputs) if outputs else m,
            cfg=load_programs(table, m.programs, cfg.write_many(writes) if writes else cfg),
            timer=m.cycle_time,
            env_timer=m.cycle_time if s.options.clock_sep else m.env_timer,
            cycle_index=m.cycle_index + 1,
        )
        s = s.with_machine(m)
    return copy_with(s, ticked=False)


def _both_ways(monkeypatch, ctx, s):
    """`start_variants` at `s` with the compiled start, then with the reference."""
    got = start_variants(ctx, s)
    with monkeypatch.context() as mp:
        mp.setattr(timed, "start_scans", partial(_reference_start_scans, ctx.table))
        want = start_variants(ctx, s)
    return got, want


@pytest.mark.parametrize("name", bench.all_names())
def test_every_start_on_a_walk_matches_the_reference(monkeypatch, name):
    scen = bench.load(name)
    starts = 0
    for mode in ("concrete", "symbolic"):
        ctx = scen.context()
        s0 = scen.initial_state(mode=mode)
        for _, s in [(None, s0)] + random_walk(scen.context(), s0, 20, random.Random(name)):
            got, want = _both_ways(monkeypatch, ctx, s)
            assert got == want
            starts += len(got)
    assert starts


def test_a_preloaded_initial_state_matches_the_reference():
    scen = bench.load("diamond")
    assert scen.preload
    for mode in ("concrete", "symbolic"):
        s = SystemState(machines=scen.machines, conns=scen.conns, clock=0,
                        options=copy_with(scen.options, mode=mode))
        want = _reference_start_scans(scen.table, s, scen.preload, {})
        assert scen.initial_state(mode=mode) == want


FREE_SRC = """
PROGRAM P{n}
VAR_INPUT
  a : INT;
  b : INT;
END_VAR
VAR_OUTPUT
  y : INT;
END_VAR
y := a + b;
END_PROGRAM
"""


def test_free_inputs_get_the_reference_names_and_domains(monkeypatch):
    table = table_for(FREE_SRC.format(n=1), FREE_SRC.format(n=2))
    ctx = ctx_for(table)
    free = [InputSpec("P{n}", "a", "free", lo=Fraction(0), hi=Fraction(10)),
            InputSpec("P{n}", "b", "free", values=(1, 3))]

    def machine(mid, n):
        inputs = tuple(copy_with(spec, prog=spec.prog.format(n=n)) for spec in free)
        return make_machine(table, mid, (f"P{n}",), state={"y": 0}, cycle_time=5, inputs=inputs)

    s = make_system([machine("m1", 1), machine("m2", 2)], options=Options(mode="symbolic"))
    for _ in range(2):
        got, want = _both_ways(monkeypatch, ctx, s)
        assert got == want
        ((_, s),) = got
        assert s.fresh_counter and s.constraints
        s = copy_with(s, machines=tuple(copy_with(m, timer=0, cfg=copy_with(m.cfg, k=()))
                                        for m in s.machines))


TWO_SRC = """
PROGRAM A
VAR_OUTPUT
  x : INT := 1;
END_VAR
x := x;
END_PROGRAM

PROGRAM B
VAR_OUTPUT
  x : INT := 2;
END_VAR
x := x;
END_PROGRAM

PROGRAM C
VAR_INPUT
  x : INT;
END_VAR
VAR_OUTPUT
  z : INT;
END_VAR
z := x;
END_PROGRAM
"""


def test_the_last_program_that_publishes_a_variable_wins():
    table = table_for(TWO_SRC)
    m = make_machine(table, "m1", ("A", "B", "C"), state={"x": 0})
    s = make_system([m])
    got = start_scans(s, ["m1"], {})
    assert got == _reference_start_scans(table, s, ["m1"], {})
    m1 = got.machine("m1")
    assert m1.state_value("x") == 2
    # C senses the published value, not the plant's old one.
    assert m1.cfg.read(dict(dict(m1.programs)["C"])["x"]) == 2


def test_a_plan_with_an_unallocated_location_is_refused():
    table = table_for(TWO_SRC)
    # A publishes its x and C senses its x, each at location 0, which an
    # empty store lacks.
    for program in ("A", "C"):
        m = make_machine(table, "m1", (program,), state={"x": 0})
        m = copy_with(m, cfg=copy_with(m.cfg, store=()))
        with pytest.raises(EvalError, match="unallocated location 0"):
            start_scans(make_system([m]), ["m1"], {})
