"""Communication answers live beside the program text, never inside it.

A head statement that calls communication intrinsics suspends at each
call in evaluation order; the system layer's answer joins
`KConfig.answers`, and the statement is evaluated again from the start.
Whatever consumes the head clears the answers, and `k` only ever holds
statements as they were written.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from plcreach import bench
from plcreach.explorer import random_walk
from plcreach.kmachine import (
    Branch,
    Internal,
    NeedsComm,
    load_programs,
    resume_comm,
    step,
)
from plcreach.st import Lit
from plcreach.values import Poly, cmp_le, vand, vnot

from test_kmachine import make, read_var

BLOCK_SRC = """
FUNCTION_BLOCK FB
VAR_INPUT
  i : BOOL;
END_VAR
END_FUNCTION_BLOCK
"""


def loaded(body: str):
    src = BLOCK_SRC + (
        "PROGRAM P\nVAR\n  b : BOOL;\n  fb : FB;\nEND_VAR\n" + body + "\nEND_PROGRAM\n"
    )
    table, cfg = make(src, ["P"])
    return table, load_programs(table, cfg)


def answer_all(table, cfg, replies):
    """Answer each suspension with the next reply until the head moves on.

    Returns the suspensions as (name, argvalues), the answers held before
    each step, and the outcome that consumed the head.
    """
    calls, held = [], []
    replies = iter(replies)
    while True:
        held.append(cfg.answers)
        out = step(table, cfg)
        if not isinstance(out, NeedsComm):
            return calls, held, out
        calls.append((out.name, out.argvalues))
        cfg = resume_comm(cfg, out.site, next(replies))
        if out.site is None:
            return calls, held, cfg


class TestOrder:
    def test_two_calls_in_one_statement(self):
        table, cfg = loaded("b := isConnected('T2') AND NOT isConnected('T3');")
        calls, held, out = answer_all(table, cfg, [True, False])
        assert calls == [("isConnected", ("T2",)), ("isConnected", ("T3",))]
        assert held == [(), (True,), (True, False)]
        assert isinstance(out, Internal) and out.label == "assign"
        assert read_var(out.cfg, "P", "b") is True

    def test_nested_call_sees_the_inner_answer(self):
        table, cfg = loaded("b := isConnected(isConnected('T2'));")
        calls, held, out = answer_all(table, cfg, [True, False])
        assert calls == [("isConnected", ("T2",)), ("isConnected", (True,))]
        assert held == [(), (True,), (True, False)]
        assert isinstance(out, Internal)
        assert read_var(out.cfg, "P", "b") is False

    def test_symbolic_answers_keep_their_order(self):
        table, cfg = loaded("b := isConnected('T2') AND NOT isConnected('T3');")
        first = cmp_le(Poly.var("_u0"), 3)
        second = cmp_le(Poly.var("_u1"), 5)
        _, held, out = answer_all(table, cfg, [first, second])
        assert held[-1] == (first, second)
        assert read_var(out.cfg, "P", "b") == vand(first, vnot(second))


class TestConsumingTheHeadClearsAnswers:
    def test_assignment(self):
        table, cfg = loaded("b := isConnected('T2');")
        _, held, out = answer_all(table, cfg, [True])
        assert held[-1] == (True,)
        assert isinstance(out, Internal) and out.cfg.answers == ()

    @pytest.mark.parametrize("answer", [True, False])
    def test_if_arm(self, answer):
        table, cfg = loaded("IF isConnected('T2') THEN b := TRUE; END_IF;")
        _, held, out = answer_all(table, cfg, [answer])
        assert held[-1] == (answer,)
        assert isinstance(out, Internal)
        assert out.label == ("if-true" if answer else "if-false")
        assert out.cfg.answers == ()

    def test_both_arms_of_a_symbolic_branch(self):
        table, cfg = loaded("IF isConnected('T2') THEN b := TRUE; END_IF;")
        _, _, out = answer_all(table, cfg, [cmp_le(Poly.var("_u0"), 3)])
        assert isinstance(out, Branch)
        assert out.then_cfg.answers == () and out.else_cfg.answers == ()

    def test_block_call(self):
        table, cfg = loaded("fb(isConnected('T2'));")
        _, held, out = answer_all(table, cfg, [True])
        assert held[-1] == (True,)
        assert isinstance(out, Internal) and out.label == "call"
        assert out.cfg.answers == ()

    def test_intrinsic_in_statement_position(self):
        table, cfg = loaded("connectRequest(isConnected('T2'));")
        calls, held, after = answer_all(table, cfg, [True, True])
        assert calls == [("isConnected", ("T2",)), ("connectRequest", (True,))]
        assert held == [(), (True,)]
        assert after.answers == () and after.k == ()


# -- the program text stays the program text ---------------------------------

PROGRAM_CONSTANTS = (int, Fraction, bool, str)


def literals(node):
    """Every literal inside a `k` item, found through its dataclass fields."""
    if isinstance(node, Lit):
        yield node.value
    elif isinstance(node, tuple):
        for x in node:
            yield from literals(x)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from literals(getattr(node, f.name))


WALKS = [
    ("ptpc", "concrete"),
    ("rvc", "concrete"),
    ("therc", "concrete"),
    ("commdemo", "concrete"),
    ("commdemo", "symbolic"),
]


@pytest.mark.parametrize("name,mode", WALKS, ids=[f"{n}-{m}" for n, m in WALKS])
def test_k_holds_only_program_constants_on_random_walks(name, mode):
    scen = bench.load(name)
    ctx = scen.context()
    s0 = scen.initial_state(mode=mode, por=False)
    answered = 0
    for seed in range(3):
        for _, s in random_walk(ctx, s0, 150, random.Random(seed)):
            for m in s.machines:
                answered += bool(m.cfg.answers)
                for item in m.cfg.k:
                    for v in literals(item):
                        assert type(v) in PROGRAM_CONSTANTS, (m.mid, item)
    # The walks pass through suspended heads, so the check is not vacuous.
    assert answered
