from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plcreach.solver import solve_linear
from plcreach.values import (
    _norm_cmp,
    Cmp,
    EvalError,
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
    vneg,
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


def in_rat_form(v) -> bool:
    """The engine's one form of a rational: an int exactly when it is
    integral, else a Fraction with denominator > 1; never a float or bool."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def assert_canonical(got, want):
    assert got.terms == want.terms
    monos = [m for m, _ in got.terms]
    assert all(a < b for a, b in zip(monos, monos[1:]))
    assert all(in_rat_form(c) and c != 0 for _, c in got.terms)
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
    assert in_rat_form(got)
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
    cases = ((Fraction(6, 2), 3), ("4/2", 2), (2.0, 2), (True, 1), (False, 0), (0.1, Fraction(1, 10)))
    for x, want in cases:
        got = rat(x)
        assert got == want and type(got) is type(want)
    with pytest.raises(TypeError):
        rat(None)


# Integral Fractions among the inputs: the kernel brings them to int too.
numbers = st.one_of(st.integers(-20, 20), rationals)


@given(numbers, numbers)
def test_kernel_ops_keep_the_rational_form(a, b):
    outs = [rat(a), vadd(a, b), vsub(a, b), vmul(a, b), vneg(a), monus(a, b)]
    if b:
        outs.append(vdiv(a, b))
    assert all(in_rat_form(v) for v in outs)
    assert outs[1] == a + b and outs[2] == a - b and outs[3] == a * b


def test_division_of_ints_is_exact():
    cases = ((7, 2, Fraction(7, 2)), (8, 2, 4), (Fraction(1, 2), Fraction(1, 4), 2), (-3, 6, Fraction(-1, 2)))
    for a, b, want in cases:
        got = vdiv(a, b)
        assert got == want and in_rat_form(got)


@settings(max_examples=50)
@given(poly_pairs(), numbers, st.fixed_dictionaries({n: numbers for n in all_names}), var_names)
def test_poly_ops_keep_the_rational_form(pq, k, env, name):
    p, q = pq

    def ok(poly):
        return all(in_rat_form(c) and c != 0 for _, c in poly.terms)

    polys_out = [p + q, p - q, -p, p * q, p.scale(k), Poly.const(k), Poly.var(name),
                 Poly([((), k), ((), k)]), p.substitute({name: k}), p.substitute({name: q})]
    assert all(ok(r) for r in polys_out)
    numbers_out = [p.evaluate(env), substitute(p, env), Poly.const(k).const_value(),
                   (p - p).const_value(), p.coeff(name)]
    assert all(in_rat_form(v) for v in numbers_out)
    for op in (cmp_le, cmp_lt, cmp_eq):
        c = op(p, q)
        if isinstance(c, bool):
            continue
        assert ok(c.lhs)
        for atom in (c, bnot(c)):
            # an injective renaming that reorders terms re-pins the lead
            assert ok(rename(atom, {"x": "y", "y": "x"}, {}).lhs)


linear_atoms = st.builds(
    lambda cx, cy, c: Poly.var("x").scale(cx) + Poly.var("y").scale(cy) + Poly.const(c),
    numbers,
    numbers,
    numbers,
)


@settings(max_examples=60)
@given(st.lists(linear_atoms, min_size=1, max_size=5), numbers, numbers, st.booleans())
def test_solver_models_keep_the_rational_form(atoms, vx, vy, strict):
    # constraints that hold at (vx, vy) with slack, so some model exists
    env = {"x": vx, "y": vy}
    guards = []
    for p in atoms:
        val = p.evaluate(env)
        guards.append((cmp_lt if strict else cmp_le)(p, val + 1))
    phi = band(*guards)
    v = solve_linear(phi)
    assert v.is_sat
    assert all(in_rat_form(m) for m in v.model.values())


def test_solver_midpoint_keeps_the_rational_form():
    x = Poly.var("x")
    cases = ((1, 3, 2), (0, 1, Fraction(1, 2)), (Fraction(1, 2), Fraction(7, 2), 2),
             (Fraction(1, 2), Fraction(5, 2), Fraction(3, 2)))
    for lo, hi, want in cases:
        v = solve_linear(band(cmp_lt(Poly.const(lo), x), cmp_lt(x, hi)))
        got = v.model["x"]
        assert got == want and in_rat_form(got)


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


NORM_OPS = ("<=", "<", "==", "!=")


def is_primitive(atom) -> bool:
    """Int coefficients with gcd 1; for ==/!= the first one positive."""
    cs = [c for _, c in atom.lhs.terms]
    return (
        all(type(c) is int for c in cs)
        and gcd(*cs) == 1
        and (atom.op in ("<=", "<") or cs[0] > 0)
    )


@given(
    linear_polys(),
    st.sampled_from(NORM_OPS),
    rationals,
    st.fixed_dictionaries({n: rationals for n in ("x", "y", "z", "w")}),
)
def test_atom_normal_form_ignores_admissible_scaling(p, op, k, env):
    # `<=` and `<` may scale by a positive factor only; `==` and `!=`
    # by any nonzero one
    if op in ("<=", "<"):
        k = abs(k)
    assume(k != 0)
    a = _norm_cmp(op, p)
    assert _norm_cmp(op, p.scale(k)) == a
    if isinstance(a, bool):
        assert p.is_const()
    else:
        assert is_primitive(a)
        assert evaluate(a, env) == evaluate(Cmp(op, p), env)


@given(linear_polys(), st.sampled_from(NORM_OPS), st.permutations(["x", "y", "z", "w"]))
def test_renaming_and_negation_keep_the_normal_form(p, op, perm):
    a = _norm_cmp(op, p)
    assume(not isinstance(a, bool))
    names = dict(zip(["x", "y", "z", "w"], perm))
    renamed = rename(a, names, {})
    assert renamed == _norm_cmp(op, p.rename(names, {}))
    assert is_primitive(renamed)
    neg = bnot(a)
    assert is_primitive(neg) and neg == _norm_cmp(neg.op, neg.lhs)
    assert bnot(neg) == a


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


@pytest.mark.parametrize(
    "a, b", [("a", 1), (1, "a"), ("a", True), (False, ""), ("1", Fraction(1)), ("x", Poly.var("x"))]
)
@pytest.mark.parametrize("op", ["=", "<>"])
def test_a_text_equals_only_a_text(op, a, b):
    with pytest.raises(EvalError, match="type mismatch"):
        vcmp(op, a, b)


def test_rcv_error_compares_with_anything_and_a_text_has_no_order():
    for v in (RCV_ERROR, 1, True, "a", Poly.var("x")):
        assert vcmp("=", RCV_ERROR, v) is (v is RCV_ERROR)
        assert vcmp("<>", v, RCV_ERROR) is (v is not RCV_ERROR)
    for a, b in (("a", "b"), ("a", 1), (RCV_ERROR, 1)):
        with pytest.raises(EvalError, match="ordering is undefined"):
            vcmp("<", a, b)


def test_monus():
    assert monus(Fraction(10), Fraction(4)) == Fraction(6)
    assert monus(Fraction(3), Fraction(5)) == Fraction(0)
    t = Poly.var("T")
    assert monus(Fraction(10), t) == Poly.const(10) - t
