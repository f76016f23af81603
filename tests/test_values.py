from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plcreach.values import (
    Cmp,
    Poly,
    band,
    bnot,
    bool_evaluate,
    bor,
    ckey,
    cmp_eq,
    cmp_le,
    cmp_lt,
    monus,
    RCV_ERROR,
    evaluate,
    rat,
    rename,
    substitute,
    vadd,
    vcmp,
    vdiv,
    vmul,
    vsub,
    variables,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=8
)
var_names = st.sampled_from(["x", "y", "z", "w"])


def linear_polys():
    def build(coeffs, const):
        p = Poly.const(const)
        for name, c in coeffs:
            p = p + Poly.var(name).scale(c)
        return p

    return st.builds(
        build,
        st.lists(st.tuples(var_names, rationals), max_size=4),
        rationals,
    )


# Polynomials with nonlinear monomials (x*y, x^2) and constants, built by
# the reference construction: Poly over a list of terms, which sums equal
# monomials and drops zeros.
monomials = st.dictionaries(var_names, st.integers(1, 3), max_size=3).map(
    lambda powers: tuple(sorted(powers.items()))
)
polys = st.lists(st.tuples(monomials, rationals), max_size=6).map(Poly)


@st.composite
def poly_pairs(draw):
    """(p, q), where q often shares or cancels some of p's terms."""
    p = draw(polys)
    shared = draw(st.lists(st.sampled_from(p.terms), unique=True) if p.terms else st.just([]))
    sign = draw(st.sampled_from([1, -1]))
    q = Poly([(m, sign * c) for m, c in shared] + list(draw(polys).terms))
    return p, draw(st.sampled_from([q, p, -p]))


def reference(*signed):
    """Poly over the dict of summed terms of each (sign, poly)."""
    acc = {}
    for sign, p in signed:
        for m, c in p.terms:
            acc[m] = acc.get(m, 0) + sign * c
    return Poly(acc)


def assert_canonical(got, want):
    assert got.terms == want.terms
    monos = [m for m, _ in got.terms]
    assert all(a < b for a, b in zip(monos, monos[1:]))
    assert all(type(c) is Fraction and c != 0 for _, c in got.terms)
    assert hash(got) == hash(want)
    assert ckey(got) == ckey(want)


@given(poly_pairs(), st.one_of(rationals, st.integers(-3, 3)))
def test_kernel_arithmetic_matches_the_reference(pq, k):
    p, q = pq
    assert_canonical(p + q, reference((1, p), (1, q)))
    assert_canonical(p - q, reference((1, p), (-1, q)))
    assert_canonical(-p, reference((-1, p)))
    assert_canonical(p.scale(k), Poly({m: c * k for m, c in p.terms}))


def test_kernel_arithmetic_cancels_to_zero():
    x, y = Poly.var("x"), Poly.var("y")
    p = x * y + x * x - Poly.const(2)
    assert (p - p).terms == () and (p + -p).terms == ()
    assert (p - (x * x - Poly.const(2))).terms == (((("x", 1), ("y", 1)), Fraction(1)),)
    assert Poly.const(0).terms == () and Poly.const(3).terms == (((), Fraction(3)),)


rational_values = st.one_of(st.integers(-5, 5), rationals)
all_names = ["x", "y", "z", "w"]


@given(polys, st.fixed_dictionaries({n: rational_values for n in all_names}))
def test_rational_substitution_evaluates(p, mapping):
    got = substitute(p, mapping)
    assert type(got) is Fraction
    assert got == p.substitute(mapping).const_value()


@given(
    polys,
    st.one_of(
        st.dictionaries(var_names, rational_values, max_size=3),
        st.fixed_dictionaries({n: st.one_of(rational_values, polys) for n in all_names}),
    ),
)
def test_partial_or_polynomial_substitution_takes_the_general_path(p, mapping):
    out = p.substitute(mapping)
    assert substitute(p, mapping) == (out.const_value() if out.is_const() else out)


def test_rat_coercions():
    assert rat(3) == Fraction(3)
    assert rat("3/4") == Fraction(3, 4)
    assert rat(0.5) == Fraction(1, 2)
    assert rat(Fraction(7, 2)) == Fraction(7, 2)


def test_poly_basic_algebra():
    x, y = Poly.var("x"), Poly.var("y")
    p = x + y.scale(2) - Poly.const(3)
    assert p.evaluate({"x": 1, "y": 2}) == Fraction(2)
    assert (x * x).degree() == 2
    assert p.is_linear() and not (x * y).is_linear()
    assert p.coeff("y") == 2
    assert p.substitute({"y": Poly.const(0)}) == x - Poly.const(3)


def test_poly_canonical_equality():
    a = Poly.var("x") + Poly.var("y")
    b = Poly.var("y") + Poly.var("x")
    assert a == b and hash(a) == hash(b)
    assert Poly.var("x") - Poly.var("x") == Poly()
    assert not (Poly.var("x") - Poly.var("x"))


@given(linear_polys(), linear_polys(), st.dictionaries(var_names, rationals, min_size=4))
def test_poly_ops_agree_with_rational_eval(p, q, env):
    assert (p + q).evaluate(env) == p.evaluate(env) + q.evaluate(env)
    assert (p - q).evaluate(env) == p.evaluate(env) - q.evaluate(env)
    assert (p * q).evaluate(env) == p.evaluate(env) * q.evaluate(env)


@given(linear_polys(), st.dictionaries(var_names, rationals, min_size=4))
def test_substitute_then_evaluate(p, env):
    sub = {k: Poly.const(v) for k, v in env.items()}
    assert p.substitute(sub).const_value() == p.evaluate(env)


@given(
    linear_polys(),
    linear_polys(),
    st.dictionaries(var_names, st.one_of(rationals, linear_polys())),
    st.dictionaries(var_names, rationals, min_size=4),
)
def test_substitute_into_products(p, q, mapping, env):
    # Replacements are simultaneous: a replacement's own variables are
    # evaluated in `env`, not substituted again.
    product = p * q
    inner = {v: mapping.get(v, env[v]) for v in env}
    inner = {v: r.evaluate(env) if isinstance(r, Poly) else r for v, r in inner.items()}
    assert product.substitute(mapping).evaluate(env) == product.evaluate(inner)


def test_cmp_constant_folding():
    assert cmp_le(1, 2) is True
    assert cmp_lt(2, 2) is False
    assert cmp_eq(Poly.const(5), 5) is True
    x = Poly.var("x")
    c = cmp_le(x, 3)
    assert bool_evaluate(c, {"x": 3}) and not bool_evaluate(c, {"x": 4})


def test_cmp_scaling_is_canonical():
    x, y = Poly.var("x"), Poly.var("y")
    assert cmp_le(x.scale(2), y.scale(2)) == cmp_le(x, y)
    assert cmp_eq(x.scale(-3), y.scale(-3)) == cmp_eq(x, y)


def test_connective_normalization():
    x = Poly.var("x")
    a, b = cmp_le(x, 1), cmp_le(x, 2)
    assert band(a, True) == a
    assert band(a, False) is False
    assert bor(a, True) is True
    assert band(a, b) == band(b, a)
    assert band(a, a) == a
    assert bnot(bnot(a)) == a
    # negation of <= flips to strict < on the negated polynomial
    assert bool_evaluate(bnot(a), {"x": 2}) and not bool_evaluate(bnot(a), {"x": 1})


def test_disequality_is_an_atom():
    x, y = Poly.var("x"), Poly.var("y")
    ne = bnot(cmp_eq(x.scale(-2), y))
    assert isinstance(ne, Cmp) and ne.op == "!="
    # scaled like ==: the sign of the leading coefficient is pinned too
    assert ne == bnot(cmp_eq(y, x.scale(-2)))
    assert bnot(ne) == cmp_eq(x.scale(-2), y)
    assert substitute(ne, {"x": 1, "y": -2}) is False
    assert substitute(ne, {"x": 1, "y": 0}) is True
    assert evaluate(ne, {"x": 1, "y": 0}) and not evaluate(ne, {"x": 1, "y": -2})
    # renaming reorders the terms here; the new leading coefficient is pinned
    renamed = rename(bnot(cmp_eq(x, y.scale(3))), {"x": "b", "y": "a"}, {})
    assert renamed == bnot(cmp_eq(Poly.var("b"), Poly.var("a").scale(3)))


@given(linear_polys(), linear_polys(), st.dictionaries(var_names, rationals, min_size=4))
def test_demorgan_under_evaluation(p, q, env):
    a = cmp_le(p, 0)
    b = cmp_lt(q, 0)
    e = bnot(band(a, b))
    assert bool_evaluate(e, env) == (
        not (bool_evaluate(a, env) and bool_evaluate(b, env))
        if not isinstance(a, bool) and not isinstance(b, bool)
        else bool_evaluate(e, env)
    )


def test_bool_substitute():
    x, t = Poly.var("x"), Poly.var("t")
    c = cmp_le(x + t, 10)
    c2 = substitute(c, {"t": Poly.const(4)})
    assert bool_evaluate(c2, {"x": 6}) and not bool_evaluate(c2, {"x": 7})


def test_value_domain_helpers_cover_every_kind():
    x, y = Poly.var("_x"), Poly.var("_y")
    e = bor(bnot(cmp_eq(x, 1)), cmp_le(x + y, 3))
    assert variables(x + y) == variables(e) == {"_x", "_y"}
    assert rename(e, {"_x": "v0", "_y": "v1"}, {}) == bor(
        bnot(cmp_eq(Poly.var("v0"), 1)), cmp_le(Poly.var("v0") + Poly.var("v1"), 3)
    )
    # A polynomial that becomes constant comes back as its Fraction.
    assert substitute(x + y, {"_x": Poly.const(1), "_y": 2}) == Fraction(3)
    assert substitute(e, {"_y": 2}) == bor(bnot(cmp_eq(x, 1)), cmp_le(x, 1))
    assert evaluate(x + y, {"_x": 1, "_y": 2}) == 3
    assert evaluate(e, {"_x": 1, "_y": 3}) is False
    for concrete in (True, 3, Fraction(1, 2), "T2", RCV_ERROR):
        assert variables(concrete) == set()
        assert rename(concrete, {"_x": "v0"}, {}) is concrete
        assert substitute(concrete, {"_x": 1}) is concrete
        assert evaluate(concrete, {}) is concrete


def test_runtime_value_helpers():
    assert vadd(2, Fraction(1, 2)) == Fraction(5, 2)
    assert vsub(Poly.var("x"), 1) == Poly.var("x") - Poly.const(1)
    assert vmul(3, 4) == 12
    assert vdiv(7, 2) == Fraction(7, 2)
    assert vdiv(8, 2) == 4
    with pytest.raises(Exception):
        vdiv(1, 0)
    assert vcmp("<", 1, 2) is True
    assert vcmp("=", "T2", "T2") is True
    assert vcmp("<>", "T1", "T2") is True
    sym = vcmp(">=", Poly.var("x"), 5)
    assert bool_evaluate(sym, {"x": 5})


def test_monus():
    assert monus(Fraction(10), Fraction(4)) == Fraction(6)
    assert monus(Fraction(3), Fraction(5)) == Fraction(0)
    t = Poly.var("T")
    assert monus(Fraction(10), t) == Poly.const(10) - t
