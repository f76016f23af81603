"""The one successor loop against the loop it replaced for the states it
does not memoise (`por_reference.py`).

On random walks of symbolic `query1` and `commdemo`, of concrete
`commdemo` with a fresh-variable counter on every state, and of a
concrete machine whose free input names fresh variables, both loops must
give the same transitions, to the same states: canonical key, path
condition, `msg_seq`, fresh-variable counter and exact links, with the
reduction on and off, `first` on and off, and with and without a bound.
"""

import random
from fractions import Fraction

import pytest

from plcreach.explorer import random_walk
from plcreach.model import InputSpec, Options

from por_reference import CASES, compare, differences
from test_system import ctx_for, make_machine, make_system, table_for


@pytest.mark.parametrize("name, mode", CASES, ids=[f"{n}-{m}" for n, m in CASES])
def test_the_loop_enumerates_what_the_earlier_one_did(name, mode):
    tally: dict = {}
    for seed in range(3):
        assert differences(name, mode, seed, 60, tally) == []
    assert tally["settings"] > 400
    # chains that send, receive and connect
    assert tally["comm msg_seq"] and tally["comm links"]
    if mode == "symbolic":
        assert tally["start constraints"] and tally["tick constraints"]


BRANCH_SRC = """
PROGRAM P
VAR_INPUT lvl : REAL; END_VAR
VAR_OUTPUT sw : BOOL; END_VAR
IF lvl > 5 THEN sw := 1; ELSE sw := TRUE; END_IF;
END_PROGRAM
"""


def test_a_concrete_state_with_fresh_variables_enumerates_as_before():
    table = table_for(BRANCH_SRC)
    m = make_machine(table, "m1", ("P",), cycle_time=10,
                     inputs=(InputSpec("P", "lvl", "free", lo=Fraction(0), hi=Fraction(10)),))
    s0 = make_system([m], options=Options(mode="concrete"))
    states = [s0] + [s for _, s in random_walk(ctx_for(table), s0, 30, random.Random(1))]
    assert all(s.fresh_counter for s in states[1:])
    tally: dict = {}
    assert compare(lambda: ctx_for(table), states, tally) == []
    # branch arms on the free input narrow the path condition
    assert tally["internal constraints"]
