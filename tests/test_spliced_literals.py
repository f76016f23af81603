"""Symbolic communication answers held by `resume_comm` belong to the state.

A communication result is kept in the configuration's `answers` until the
suspended statement is consumed, and that result may be symbolic of any
kind: a Poly or a boolean expression.  Such an answer names variables like
any store value does, so it must be listed by `config_vars`, renamed by
`config_key`, keep its path condition in the canonical key, and keep its
pin in the path condition, whatever the shape of the statement that made
the call.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from plcreach.kmachine import (
    NeedsComm,
    config_key,
    config_vars,
    load_programs,
    resume_comm,
    step,
)
from plcreach.model import Options, canonicalize, propagate_pins
from plcreach.values import Poly, cmp_eq, cmp_le

from test_kmachine import make
from test_system import make_machine, make_system
from test_values import in_rat_form

F = Fraction

BLOCK_SRC = """
FUNCTION_BLOCK FB
VAR_INPUT
  i : BOOL;
END_VAR
END_FUNCTION_BLOCK
"""

# Each head statement suspends on isConnected('T2'); resume_comm then holds
# the answer until the statement is evaluated again.
SHAPES = {
    "assign": "b := isConnected('T2');",
    "if-cond": "IF isConnected('T2') THEN b := TRUE; END_IF;",
    "call-arg": "fb(isConnected('T2'));",
    "binop": "b := isConnected('T2') AND b;",
    "unop": "b := NOT isConnected('T2');",
    "call-expr": "b := isConnected(isConnected('T2'));",
}

# A symbolic value of each kind over one variable, with a constant `c`.
KINDS = {
    "poly": lambda name, c=3: Poly.var(name) + c,
    "cmp": lambda name, c=3: cmp_le(Poly.var(name), c),
}


def spliced(shape: str, value):
    """(table, loaded configuration whose head's first call has answered `value`)."""
    src = BLOCK_SRC + (
        "PROGRAM P\nVAR\n  b : BOOL;\n  fb : FB;\nEND_VAR\n"
        + SHAPES[shape]
        + "\nEND_PROGRAM\n"
    )
    table, cfg = make(src, ["P"])
    cfg = load_programs(table, cfg)
    out = step(table, cfg)
    assert isinstance(out, NeedsComm) and out.site is not None
    return table, resume_comm(cfg, out.site, value)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_config_vars_and_key_cover_spliced_literals(shape, kind):
    make_value = KINDS[kind]
    _, cfg = spliced(shape, make_value("_u0"))
    assert config_vars(cfg) == ("_u0",)

    key = config_key(cfg, {"_u0": "v0"})
    assert key is not cfg
    # An alpha variant gets the same key; a different literal does not.
    _, alpha = spliced(shape, make_value("_u7"))
    assert config_key(alpha, {"_u7": "v0"}) == key
    _, other = spliced(shape, make_value("_u0", 4))
    assert config_key(other, {"_u0": "v0"}) != key


def state_with_literal(value, constraints=(), state=None):
    """A symbolic one-machine state whose head statement has answer `value`."""
    table, cfg = spliced("assign", value)
    m = replace(make_machine(table, "m1", ("P",), state=state), cfg=cfg)
    s = make_system([m], options=Options(mode="symbolic"))
    return replace(s, fresh_counter=1, constraints=tuple(constraints))


@pytest.mark.parametrize("kind", KINDS)
def test_canonicalize_keeps_path_conditions_of_a_literal_apart(kind):
    lit = KINDS[kind]("_u0")
    bare = state_with_literal(lit)
    bounded = state_with_literal(lit, [cmp_le(Poly.var("_u0"), 3)])
    assert canonicalize(bare) != canonicalize(bounded)


def test_propagate_pins_keeps_the_pin_of_a_literal():
    u0 = Poly.var("_u0")
    pin = cmp_eq(u0, 7)
    s = state_with_literal(cmp_le(u0, 3), [pin], state={"x": u0})
    out = propagate_pins(s)
    assert pin in out.constraints
    assert out.machines[0].state == (("x", u0),)


def test_propagate_pins_still_substitutes_unanchored_variables():
    u0, u1 = Poly.var("_u0"), Poly.var("_u1")
    s = state_with_literal(cmp_le(u0, 3), [cmp_eq(u1, 7)], state={"x": u1})
    s = replace(s, fresh_counter=2)
    out = propagate_pins(s)
    assert out.constraints == ()
    assert out.machines[0].state == (("x", F(7)),)


@pytest.mark.parametrize("rhs, want", [(7, F(7, 2)), (8, 4)])
def test_propagate_pins_substitutes_numbers_in_the_rational_form(rhs, want):
    u0, u1 = Poly.var("_u0"), Poly.var("_u1")
    pin = cmp_eq(u1.scale(2), rhs)
    s = state_with_literal(cmp_le(u0, 3), [pin], state={"x": u1, "y": u1 + F(1, 2)})
    out = propagate_pins(replace(s, fresh_counter=2))
    values = dict(out.machines[0].state)
    assert values == {"x": want, "y": want + F(1, 2)}
    assert all(in_rat_form(v) for v in values.values())
