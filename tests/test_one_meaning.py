"""An ST expression means one thing wherever it is written.

`kmachine.eval_expr` evaluates program code, properties, change laws and
declaration initializers alike; only the resolver of names differs.  Each
text below is evaluated as a property over a system state and as the right
side of an assignment in a program holding the same values, in concrete and
in symbolic mode, and the two results must be equal.
"""

from fractions import Fraction as F

import pytest

from plcreach.explorer import PropertyError, compile_property
from plcreach.kmachine import Failed, Internal, idle_config, load_programs, step
from plcreach.model import PLCMachine, SystemState
from plcreach.st import ElabError, PouTable, parse_file
from plcreach.values import Poly, cmp_lt

# Machine m1 owns a, b and p; m2 owns c.  The program holds each as a local
# and again as a field of the block instances m1 and m2, so that bare and
# qualified names read the same values on both sides.
PROGRAM = """\
FUNCTION_BLOCK CELL
VAR_OUTPUT
  a : REAL;
  b : REAL;
  p : BOOL;
  c : REAL;
END_VAR
END_FUNCTION_BLOCK

PROGRAM P
VAR
  a : REAL;
  b : REAL;
  p : BOOL;
  c : REAL;
  m1 : CELL;
  m2 : CELL;
  r : BOOL;
END_VAR
r := {text};
END_PROGRAM
"""

VALUES = {
    "concrete": {"a": F(3), "b": F(4), "p": True, "c": F(-2)},
    "symbolic": {
        "a": Poly.var("_u0"),
        "b": F(4),
        "p": cmp_lt(Poly.var("_u1"), 1),
        "c": F(-2),
    },
}

WELL_TYPED = [
    "a + b * 2 = 11",
    "a - b < 0",
    "a / 2 * 4 = 6",
    "b / 4 > a / 3",
    "-a <= b",
    "a <> b",
    "a >= b OR p",
    "NOT p AND a > 0",
    "p = (a > 1)",
    "NOT (p OR c * c = 4)",
    "m1.a = a AND m2.c < 0",
    "m1.b * 2 >= m1.a",
]

ILL_TYPED = [
    "a AND p",
    "NOT a",
    "a + p > 1",
    "p < TRUE",
    "a / 0 = 1",
]


def _state(values) -> SystemState:
    def machine(mid, names):
        return PLCMachine(
            mid=mid,
            cfg=None,
            timer=F(0),
            env_timer=F(0),
            state=tuple(sorted((n, values[n]) for n in names)),
            flow=(),
            cycle_time=F(10),
        )

    return SystemState(
        machines=(machine("m1", "abp"), machine("m2", "c")), conns=(), clock=F(0)
    )


def _program_step(text, values):
    table = PouTable.from_units(parse_file(PROGRAM.format(text=text)))
    cfg = load_programs(table, idle_config(table, ("P",)))
    env = dict(cfg.prog_env("P"))
    writes = [(env[n], v) for n, v in values.items()]
    for inst in ("m1", "m2"):
        fields = cfg.read(env[inst])
        writes += [(fields.loc(n), v) for n, v in values.items()]
    cfg = cfg.write_many(writes)
    return step(table, cfg), env["r"]


@pytest.mark.parametrize("mode", ["concrete", "symbolic"])
def test_property_and_program_agree(mode):
    values = VALUES[mode]
    s = _state(values)
    for text in WELL_TYPED:
        as_property = compile_property(s, text)(s)
        out, r = _program_step(text, values)
        assert isinstance(out, Internal), (text, out)
        assert out.cfg.read(r) == as_property, text
    for text in ILL_TYPED:
        with pytest.raises(PropertyError):
            compile_property(s, text)
        out, _ = _program_step(text, values)
        assert isinstance(out, Failed), (text, out)


def test_concrete_texts_decide():
    s = _state(VALUES["concrete"])
    got = [compile_property(s, text)(s) for text in WELL_TYPED]
    assert all(isinstance(v, bool) for v in got)
    assert got[:3] == [True, True, True]


INIT_PROGRAM = """\
PROGRAM Q
VAR
  y : INT := 2;
  x : {decl};
END_VAR
x := x;
END_PROGRAM
"""


def _init_value(decl):
    table = PouTable.from_units(parse_file(INIT_PROGRAM.format(decl=decl)))
    cfg = idle_config(table, ("Q",))
    return cfg.read(dict(cfg.prog_env("Q"))["x"])


def test_initializers_fold_literals_and_name_nothing():
    assert _init_value("BOOL := NOT FALSE") is True
    assert _init_value("REAL := -(1 + 2) / 4") == F(-3, 4)
    with pytest.raises(ElabError, match="not constant"):
        _init_value("INT := y + 1")
