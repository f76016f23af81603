from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcreach.solver import SmtCheck, SolverUnavailable, solve_linear
from plcreach.values import (
    Poly,
    band,
    bnot,
    bool_evaluate,
    bor,
    cmp_eq,
    cmp_le,
    cmp_lt,
)

x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")


def test_trivial_verdicts():
    assert solve_linear(True).is_sat
    assert solve_linear(False).is_unsat


def test_box_is_sat_with_model():
    v = solve_linear(band(cmp_le(Poly.const(0), x), cmp_le(x, 10)))
    assert v.is_sat
    assert 0 <= v.model["x"] <= 10


def test_empty_interval_is_unsat():
    assert solve_linear(band(cmp_lt(x, 0), cmp_lt(Poly.const(0), x))).is_unsat
    assert solve_linear(band(cmp_le(x, 0), cmp_le(Poly.const(1), x))).is_unsat


def test_strictness_matters():
    assert solve_linear(band(cmp_le(x, 0), cmp_le(Poly.const(0), x))).is_sat
    assert solve_linear(band(cmp_lt(x, 0), cmp_le(Poly.const(0), x))).is_unsat


def test_equality_chains():
    sys_ = band(cmp_eq(x + y, 10), cmp_eq(x - y, 4))
    v = solve_linear(sys_)
    assert v.is_sat
    assert v.model["x"] == 7 and v.model["y"] == 3


def test_triangular_system():
    sys_ = band(
        cmp_le(x + y + z, 6),
        cmp_le(Poly.const(1), x),
        cmp_le(Poly.const(2), y),
        cmp_le(Poly.const(3), z),
    )
    v = solve_linear(sys_)
    assert v.is_sat
    m = v.model
    assert m["x"] + m["y"] + m["z"] <= 6
    assert solve_linear(band(sys_, cmp_lt(Poly.const(6), x + y + z))).is_unsat


def test_disequality_split():
    v = solve_linear(band(cmp_le(Poly.const(0), x), bnot(cmp_eq(x, 0))))
    assert v.is_sat and v.model["x"] > 0
    assert solve_linear(band(cmp_eq(x, 0), bnot(cmp_eq(x, 0)))).is_unsat


def test_disjunction_split():
    dom = bor(cmp_eq(x, 0), cmp_eq(x, 1))
    v = solve_linear(band(dom, cmp_lt(Poly.const(0), x)))
    assert v.is_sat and v.model["x"] == 1
    assert solve_linear(band(dom, cmp_lt(Poly.const(1), x))).is_unsat


def test_nested_disjunctions():
    d1 = bor(cmp_eq(x, 0), cmp_eq(x, 1))
    d2 = bor(cmp_eq(y, 0), cmp_eq(y, 1))
    want = cmp_eq(x + y, 2)
    v = solve_linear(band(d1, d2, want))
    assert v.is_sat and v.model["x"] == 1 and v.model["y"] == 1
    assert solve_linear(band(d1, d2, cmp_eq(x + y, 3))).is_unsat


atom_polys = st.builds(
    lambda cx, cy, c: Poly.var("x").scale(cx) + Poly.var("y").scale(cy) + Poly.const(c),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-10, 10),
)


@settings(max_examples=60)
@given(
    st.lists(atom_polys, min_size=1, max_size=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)
def test_sat_by_construction_has_model(polys, vx, vy):
    # constraints constructed to hold at (vx, vy) must be satisfiable,
    # and the returned model must satisfy every atom exactly
    env = {"x": vx, "y": vy}
    atoms = []
    for p in polys:
        val = p.evaluate(env)
        atoms.append(cmp_le(p, val) if val >= 0 else cmp_le(Poly.const(val), p))
    phi = band(*atoms)
    v = solve_linear(phi)
    assert v.is_sat
    if not isinstance(phi, bool):
        model = dict(env)
        model.update(v.model)
        assert bool_evaluate(phi, model)


@settings(max_examples=40)
@given(atom_polys, st.integers(1, 5))
def test_shifted_contradiction_is_unsat(p, gap):
    if p.is_const():
        p = p + Poly.var("x")
    phi = band(cmp_le(p, 0), cmp_le(Poly.const(gap), p))
    assert solve_linear(phi).is_unsat


def test_smtcheck_caches_and_counts():
    chk = SmtCheck()
    phi = band(cmp_le(Poly.const(0), x), cmp_le(x, 10))
    assert chk.check(phi, "internal").is_sat
    assert chk.check(phi, "internal").is_sat
    assert chk.stats.queries == 1
    assert chk.stats.cache_hits == 1
    assert chk.stats.by_class == {"internal": 1}


def test_smtcheck_nonlinear_without_backend():
    chk = SmtCheck()
    with pytest.raises(SolverUnavailable, match="only linear arithmetic"):
        chk.check(cmp_le(x * y, 1))


def test_model_respects_strict_bounds():
    v = solve_linear(band(cmp_lt(Poly.const(0), x), cmp_lt(x, Fraction(1, 1000))))
    assert v.is_sat
    assert 0 < v.model["x"] < Fraction(1, 1000)
