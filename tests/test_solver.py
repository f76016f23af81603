import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcreach.solver import SmtCheck, SolverUnavailable, solve_linear
from plcreach.values import (
    And,
    Cmp,
    Or,
    Poly,
    band,
    bnot,
    bool_evaluate,
    bor,
    ckey,
    cmp_eq,
    cmp_le,
    cmp_lt,
    _norm_cmp,
    evaluate,
    rename,
    variables,
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


def test_smtcheck_hits_on_an_equal_constraint_built_again():
    # Fresh atoms each time, joined in the other order: equal constraints
    # that share no object share one cache entry.
    def atoms():
        return cmp_le(Poly.const(0), Poly.var("x")), cmp_lt(Poly.var("x") + Poly.var("y"), 4)

    a, b = atoms()
    c, d = atoms()
    assert a is not c and b is not d
    chk = SmtCheck()
    assert chk.check(band(a, b)).is_sat
    assert chk.check(band(d, c)).is_sat
    assert (chk.stats.queries, chk.stats.cache_hits) == (1, 1)


def test_smtcheck_answers_decided_constraints():
    chk = SmtCheck()
    assert chk.check(True).is_sat
    assert chk.check(False).is_unsat
    assert chk.check(True).is_sat
    assert (chk.stats.queries, chk.stats.cache_hits) == (2, 1)


def _fresh_ckey(v):
    """The canonical key computed from the structure, caching nothing."""
    if isinstance(v, Cmp):
        terms = tuple((m, (c.numerator, c.denominator)) for m, c in v.lhs.terms)
        return (1, v.op, (0, terms))
    return (2 if isinstance(v, And) else 3, tuple(_fresh_ckey(a) for a in v.args))


def test_cached_keys_of_equal_expressions_agree():
    def build():
        le = cmp_le(x.scale(2) + y, 3)
        ne = bnot(cmp_eq(x, z))
        return le, ne, band(le, ne), bor(le, cmp_lt(z, 0))

    for first, second in zip(build(), build()):
        assert first is not second and first == second
        assert (hash(first), ckey(first)) == (hash(second), ckey(second))
        assert ckey(first) == _fresh_ckey(first)
    le, _, conj, disj = build()
    assert isinstance(conj, And) and isinstance(disj, Or)
    assert le != conj and conj != disj and le != le.lhs


def test_atom_interned_by_rename_has_a_fresh_key():
    pool = {}
    names = {"x": "v1", "y": "v0"}
    first = rename(cmp_le(x.scale(3) + y, 1), names, pool)
    again = rename(cmp_le(x.scale(3) + y, 1), names, pool)
    assert again is first
    want = cmp_le(Poly.var("v1").scale(3) + Poly.var("v0"), 1)
    assert ckey(first) == ckey(want) == _fresh_ckey(first)


def test_smtcheck_nonlinear_without_backend():
    chk = SmtCheck()
    with pytest.raises(SolverUnavailable, match="only linear arithmetic"):
        chk.check(cmp_le(x * y, 1))


def test_model_respects_strict_bounds():
    v = solve_linear(band(cmp_lt(Poly.const(0), x), cmp_lt(x, Fraction(1, 1000))))
    assert v.is_sat
    assert 0 < v.model["x"] < Fraction(1, 1000)


# The elimination the solver used before it became fraction-free: each
# equality solved for its first variable and substituted, each variable's
# bounds divided by its coefficient.  It decides a conjunction of
# (op, polynomial) rows, op one of <=, < and ==.


def _rational_fm(rows):
    eqs = [p for op, p in rows if op == "=="]
    ineqs = [(op, p) for op, p in rows if op != "=="]
    while eqs:
        p = eqs.pop()
        if p.is_const():
            if p.const_value() != 0:
                return False
            continue
        var = sorted(p.variables())[0]
        rest = p.drop(var).scale(Fraction(-1) / p.coeff(var))
        eqs = [q.substitute({var: rest}) for q in eqs]
        ineqs = [(o, q.substitute({var: rest})) for o, q in ineqs]
    while True:
        left = sorted({v for _, p in ineqs for v in p.variables()})
        if not left:
            break
        x = left[0]
        lowers, uppers, rest = [], [], []
        for op, p in ineqs:
            c = p.coeff(x)
            if c == 0:
                rest.append((op, p))
                continue
            bound = (p.drop(x).scale(Fraction(-1) / c), op == "<")
            (uppers if c > 0 else lowers).append(bound)
        ineqs = rest + [
            ("<" if ls or us else "<=", lb - ub) for lb, ls in lowers for ub, us in uppers
        ]
    return all(
        p.const_value() < 0 if op == "<" else p.const_value() <= 0 for op, p in ineqs
    )


def _oracle_sat(atoms) -> bool:
    """Each disequality p != 0 split into p < 0 or -p < 0, every case
    decided by the rational elimination."""
    cases = [
        [("<", a.lhs), ("<", -a.lhs)] if a.op == "!=" else [(a.op, a.lhs)] for a in atoms
    ]
    return any(_rational_fm(list(rows)) for rows in itertools.product(*cases))


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def linear_systems(draw):
    names = ["x", "y", "z"][: draw(st.integers(2, 3))]
    atoms = []
    for _ in range(draw(st.integers(1, 5))):
        p = Poly.const(draw(small))
        for n in names:
            p = p + Poly.var(n).scale(draw(st.sampled_from([0, 0, 1, -1]) | small))
        atoms.append(_norm_cmp(draw(st.sampled_from(["<=", "<", "==", "!="])), p))
    return atoms


@settings(max_examples=150, deadline=None)
@given(linear_systems())
def test_fraction_free_elimination_agrees_with_rational_elimination(atoms):
    phi = band(*atoms)
    v = solve_linear(phi)
    if isinstance(phi, bool):
        assert v.is_sat == phi
        return
    assert v.is_sat == _oracle_sat([a for a in atoms if a is not True])
    if v.is_sat:
        assert variables(phi) <= v.model.keys()
        assert all(evaluate(a, v.model) for a in atoms)
