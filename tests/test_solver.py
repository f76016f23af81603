import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plcreach
from plcreach.model import _renaming
from plcreach.solver import SmtCheck, SolverUnavailable, _cancel, _solve_conjunction, solve_linear
from plcreach.values import (
    And,
    Cmp,
    Or,
    Poly,
    band,
    bnot,
    bool_evaluate,
    bor,
    cmp_eq,
    cmp_le,
    cmp_lt,
    _norm_cmp,
    evaluate,
    rat,
    rename,
    variables,
)

x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")


def test_trivial_verdicts():
    assert solve_linear(True) == {}
    assert solve_linear(False) is None


def test_box_is_sat_with_model():
    v = solve_linear(band(cmp_le(Poly.const(0), x), cmp_le(x, 10)))
    assert v is not None
    assert 0 <= v["x"] <= 10


def test_empty_interval_is_unsat():
    assert solve_linear(band(cmp_lt(x, 0), cmp_lt(Poly.const(0), x))) is None
    assert solve_linear(band(cmp_le(x, 0), cmp_le(Poly.const(1), x))) is None


def test_strictness_matters():
    assert solve_linear(band(cmp_le(x, 0), cmp_le(Poly.const(0), x))) is not None
    assert solve_linear(band(cmp_lt(x, 0), cmp_le(Poly.const(0), x))) is None


def test_equality_chains():
    sys_ = band(cmp_eq(x + y, 10), cmp_eq(x - y, 4))
    v = solve_linear(sys_)
    assert v is not None
    assert v["x"] == 7 and v["y"] == 3


def test_triangular_system():
    sys_ = band(
        cmp_le(x + y + z, 6),
        cmp_le(Poly.const(1), x),
        cmp_le(Poly.const(2), y),
        cmp_le(Poly.const(3), z),
    )
    m = solve_linear(sys_)
    assert m is not None
    assert m["x"] + m["y"] + m["z"] <= 6
    assert solve_linear(band(sys_, cmp_lt(Poly.const(6), x + y + z))) is None


def test_disequality_split():
    v = solve_linear(band(cmp_le(Poly.const(0), x), bnot(cmp_eq(x, 0))))
    assert v is not None and v["x"] > 0
    assert solve_linear(band(cmp_eq(x, 0), bnot(cmp_eq(x, 0)))) is None


def test_disjunction_split():
    dom = bor(cmp_eq(x, 0), cmp_eq(x, 1))
    v = solve_linear(band(dom, cmp_lt(Poly.const(0), x)))
    assert v is not None and v["x"] == 1
    assert solve_linear(band(dom, cmp_lt(Poly.const(1), x))) is None


def test_nested_disjunctions():
    d1 = bor(cmp_eq(x, 0), cmp_eq(x, 1))
    d2 = bor(cmp_eq(y, 0), cmp_eq(y, 1))
    want = cmp_eq(x + y, 2)
    v = solve_linear(band(d1, d2, want))
    assert v is not None and v["x"] == 1 and v["y"] == 1
    assert solve_linear(band(d1, d2, cmp_eq(x + y, 3))) is None


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
    assert v is not None
    if not isinstance(phi, bool):
        model = dict(env)
        model.update(v)
        assert bool_evaluate(phi, model)


@settings(max_examples=40)
@given(atom_polys, st.integers(1, 5))
def test_shifted_contradiction_is_unsat(p, gap):
    if p.is_const():
        p = p + Poly.var("x")
    phi = band(cmp_le(p, 0), cmp_le(Poly.const(gap), p))
    assert solve_linear(phi) is None


def test_smtcheck_caches_and_counts():
    chk = SmtCheck()
    phi = band(cmp_le(Poly.const(0), x), cmp_le(x, 10))
    assert chk.check(phi, "internal") is not None
    assert chk.check(phi, "internal") is not None
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
    assert chk.check(band(a, b)) is not None
    assert chk.check(band(d, c)) is not None
    assert (chk.stats.queries, chk.stats.cache_hits) == (1, 1)


def test_smtcheck_answers_decided_constraints():
    chk = SmtCheck()
    assert chk.check(True) is not None
    assert chk.check(False) is None
    assert chk.check(True) is not None
    assert (chk.stats.queries, chk.stats.cache_hits) == (2, 1)


def test_smtcheck_caches_an_unsatisfiable_answer():
    # None is a cached answer, not a miss: the second check is a hit.
    chk = SmtCheck()
    phi = band(cmp_lt(x, 0), cmp_lt(Poly.const(0), x))
    assert chk.check(phi) is None
    assert chk.check(phi) is None
    assert (chk.stats.queries, chk.stats.cache_hits) == (1, 1)


def _fresh_ckey(v):
    """The canonical key computed from the structure, caching nothing."""
    if isinstance(v, Cmp):
        return (1, v.op, v.lhs.terms)
    return (2 if isinstance(v, And) else 3, tuple(_fresh_ckey(a) for a in v.args))


def test_cached_keys_of_equal_expressions_agree():
    def build():
        le = cmp_le(x.scale(2) + y, 3)
        ne = bnot(cmp_eq(x, z))
        return le, ne, band(le, ne), bor(le, cmp_lt(z, 0))

    for first, second in zip(build(), build()):
        assert first is not second and first == second
        assert (hash(first), first._ckey) == (hash(second), second._ckey)
        assert first._ckey == _fresh_ckey(first)
    le, _, conj, disj = build()
    assert isinstance(conj, And) and isinstance(disj, Or)
    assert le != conj and conj != disj and le != le.lhs


def test_atom_renamed_once_per_naming_has_a_fresh_key():
    # A search renames a value once per naming of its variables, through
    # the memo of `model._renaming`: an equal atom built apart gets the
    # same renamed object, another naming a new one.
    names = {"x": "v1", "y": "v0"}
    memo = {}
    renamed, _ = _renaming(dict(names), memo)
    first = renamed(cmp_le(x.scale(3) + y, 1))
    again = renamed(cmp_le(x.scale(3) + y, 1))
    assert again is first
    assert rename(cmp_le(x.scale(3) + y, 1), names) == first
    swapped, _ = _renaming({"x": "v0", "y": "v1"}, memo)
    assert swapped(cmp_le(x.scale(3) + y, 1)) != first
    want = cmp_le(Poly.var("v1").scale(3) + Poly.var("v0"), 1)
    assert first._ckey == want._ckey == _fresh_ckey(first)


def test_smtcheck_nonlinear_without_backend():
    chk = SmtCheck()
    with pytest.raises(SolverUnavailable, match="only linear arithmetic"):
        chk.check(cmp_le(x * y, 1))


def test_model_respects_strict_bounds():
    v = solve_linear(band(cmp_lt(Poly.const(0), x), cmp_lt(x, Fraction(1, 1000))))
    assert v is not None
    assert 0 < v["x"] < Fraction(1, 1000)


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
        assert (v is not None) == phi
        return
    assert (v is not None) == _oracle_sat([a for a in atoms if a is not True])
    if v is not None:
        assert set(variables(phi)) <= v.keys()
        assert all(evaluate(a, v) for a in atoms)


# The conjunction solver as it was before it kept one row per linear form:
# every Fourier-Motzkin combination is kept, duplicates and dominated rows
# included, and the constant rows are decided at the end.  Dropping a
# dominated row changes no extreme bound, so the kept-row solver must give
# the same answer and the very same model.


def _all_rows_solve_conjunction(atoms):
    eqs, ineqs = [], []
    all_vars: set = set()
    for a in atoms:
        p = a.lhs
        all_vars.update(p.variables())
        (eqs if a.op == "==" else ineqs).append((a.op, p.primitive()))

    subst_log = []
    while eqs:
        op, p = eqs.pop()
        if p.is_const():
            if p.const_value() != 0:
                return None
            continue
        var = p.variables()[0]
        c = p.coeff(var)
        subst_log.append((var, p, c))
        eqs = [(o, _cancel(q, q.coeff(var), p, c)) for o, q in eqs]
        ineqs = [(o, _cancel(q, q.coeff(var), p, c)) for o, q in ineqs]

    elim_log = []
    while True:
        vars_left = sorted({v for _, p in ineqs for v in p.variables()})
        if not vars_left:
            break
        x = vars_left[0]
        lowers, uppers, rest = [], [], []
        for op, p in ineqs:
            c = p.coeff(x)
            if c == 0:
                rest.append((op, p))
            elif c > 0:
                uppers.append((p, c, op == "<"))
            else:
                lowers.append((p, c, op == "<"))
        combined = list(rest)
        for pl, cl, ls in lowers:
            for pu, cu, us in uppers:
                op = "<" if (ls or us) else "<="
                combined.append((op, (pl.scale(cu) + pu.scale(-cl)).primitive()))
        elim_log.append((x, lowers, uppers))
        ineqs = combined

    for op, p in ineqs:
        c = p.const_value()
        if op == "<=" and not c <= 0:
            return None
        if op == "<" and not c < 0:
            return None

    bound_vars = {x for x, _, _ in elim_log} | {v for v, _, _ in subst_log}
    model: dict = {v: 0 for v in all_vars - bound_vars}

    def solved(x, p, c):
        model[x] = 0
        return rat(Fraction(-p.evaluate(model), c))

    for x, lowers, uppers in reversed(elim_log):
        lo = [solved(x, p, c) for p, c, _ in lowers]
        hi = [solved(x, p, c) for p, c, _ in uppers]
        if lo and hi:
            lmax = max(lo)
            umin = min(hi)
            model[x] = lmax if lmax == umin else rat(Fraction(lmax + umin, 2))
        elif lo:
            model[x] = max(lo) + 1
        elif hi:
            model[x] = min(hi) - 1
        else:
            model[x] = 0
    for var, p, c in reversed(subst_log):
        model[var] = solved(var, p, c)
    return model


@st.composite
def conjunctions_with_repeats(draw):
    """Atoms over a few shared linear forms, each scaled by a small factor
    of either sign, so that many rows, given and derived, are parallel
    (equal terms, other constants or strictness) or bound a form from
    both sides.  Each atom's boundary passes at most 1 away from one
    point, so bounds often meet exactly and strictness decides.  Some
    atoms are repeated, and the order is shuffled."""
    names = ["x", "y", "z"][: draw(st.integers(1, 3))]
    point = {n: draw(st.integers(-2, 2)) for n in names}
    forms = [
        sum((Poly.var(n).scale(draw(st.sampled_from([1, -1, 2])))
             for n in sorted(draw(st.sets(st.sampled_from(names), min_size=1)))),
            Poly.const(0))
        for _ in range(draw(st.integers(1, 4)))
    ]
    atoms = []
    for _ in range(draw(st.integers(1, 8))):
        p = draw(st.sampled_from(forms)).scale(draw(st.sampled_from([1, -1, 2, 3, -2])))
        p = p - p.evaluate(point) + draw(st.integers(-1, 1))
        atom = _norm_cmp(draw(st.sampled_from(["<=", "<", "=="])), p)
        if not isinstance(atom, bool):
            atoms.append(atom)
    if atoms:
        atoms += draw(st.lists(st.sampled_from(atoms), max_size=3))
    return draw(st.permutations(atoms))


def _typed(model):
    return None if model is None else sorted((k, v, type(v)) for k, v in model.items())


@settings(max_examples=300, deadline=None)
@given(conjunctions_with_repeats())
def test_one_row_per_form_gives_the_all_rows_answer_and_model(atoms):
    assert _typed(_solve_conjunction(atoms)) == _typed(_all_rows_solve_conjunction(atoms))


def test_duplicate_and_parallel_rows_keep_the_all_rows_model():
    # x + y <= 4 twice, x + y < 4, 2x + 2y <= 5 (parallel up to scale),
    # and lower bounds with the same terms at several constants
    atoms = [cmp_le(x + y, 4), cmp_le(x + y, 4), cmp_lt(x + y, 4),
             cmp_le((x + y).scale(2), 5), cmp_le(Poly.const(0), x),
             cmp_le(Poly.const(1), x), cmp_lt(Poly.const(1), x), cmp_le(Poly.const(-2), y)]
    got = _solve_conjunction(atoms)
    assert got is not None and got == _all_rows_solve_conjunction(atoms)
    assert all(evaluate(a, got) for a in atoms)
    unsat = atoms + [cmp_le(Poly.const(3), x + y)]
    assert _solve_conjunction(unsat) is None is _all_rows_solve_conjunction(unsat)
    # y's rows do not name x, the first variable eliminated, and keep
    # their strictness through that step
    touching = [cmp_le(x, 0), cmp_lt(y, 1), cmp_le(Poly.const(1), y)]
    assert _solve_conjunction(touching) is None is _all_rows_solve_conjunction(touching)


# The bundled `query1` walk whose path condition once grew the elimination
# past the machine's memory: one Fourier-Motzkin step squared the rows.
# It runs in a child process under a 1 GiB address-space limit, so that a
# blow-up ends there, in MemoryError, and not in the test runner.
QUERY1_WALK = """
import random, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from plcreach import bench
from plcreach.explorer import random_walk
scen = bench.load("query1")
walk = random_walk(scen.context(), scen.initial_state(mode="symbolic"), 30,
                   random.Random("query1"))
print(len(walk), len(walk[-1][1].constraints))
"""


def test_query1_symbolic_walk_solves_within_memory():
    env = dict(os.environ, PYTHONPATH=str(Path(plcreach.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", QUERY1_WALK], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["30", "10"]
