"""Satisfiability checking for path constraints.

The decision procedure handles linear rational arithmetic exactly:
equalities are removed by substitution, inequalities by Fourier-Motzkin
elimination, and disjunctions by case splitting; a disequality p != 0 is
split into p < 0 or p > 0.  Elimination is fraction-free: every row is
kept with int coefficients of gcd 1, and eliminating x from two rows adds
them times positive ints that cancel x, then divides by the content again.
That is the same constraint as dividing by the pivot, times a positive
number.  The inequalities are kept in a table with one row per linear
form: of the rows whose non-constant terms are equal, only the tightest
is kept, and a row without variables is decided as soon as it is made.
Rationals appear only in models: the log keeps each row with its pivot
coefficient, and extraction divides by it.  Model values are in the form
`values.rat` gives.
Every answer is definite: a model (a dict from variable names to
rationals) when the constraint is satisfiable, None when it is not.  A
constraint outside linear arithmetic raises SolverUnavailable rather than
guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .values import Cmp, Or, Poly, band, conjuncts, rat


class SolverUnavailable(Exception):
    """A constraint lies outside linear rational arithmetic."""


def _split_candidates(items):
    """Partition conjuncts into atoms and case-split nodes."""
    atoms, splits = [], []
    for it in items:
        if isinstance(it, Cmp) and it.op == "!=":
            splits.append((Cmp("<", it.lhs), Cmp("<", -it.lhs)))
        elif isinstance(it, Cmp):
            atoms.append(it)
        elif isinstance(it, Or):
            splits.append(tuple(it.args))
        else:
            raise TypeError(f"not a constraint: {it!r}")
    return atoms, splits


def _cancel(q, a: int, p, c: int):
    """A positive multiple of `q - (a/c)*p`: the row `q`, whose coefficient
    of some variable is `a`, with that variable cancelled by the row `p`,
    whose coefficient of it is `c != 0`."""
    if not a:
        return q
    if c < 0:
        a, c = -a, -c
    return (q.scale(c) + p.scale(-a)).primitive()


def _add_row(rows: dict, p, strict: bool) -> bool:
    """Add the row `p < 0` (strict) or `p <= 0` to `rows`, which maps a
    row's non-constant terms to the tightest (constant, strict) pair seen
    for them: a larger constant is tighter, and at an equal constant a
    strict row is.  A row without variables is decided instead of added:
    the result is False exactly when it fails."""
    terms = p.terms
    if terms and terms[0][0] == ():  # the constant term sorts first
        k, form = terms[0][1], terms[1:]
    else:
        k, form = 0, terms
    if not form:
        return k < 0 or (k == 0 and not strict)
    old = rows.get(form)
    if old is None or old < (k, strict):
        rows[form] = (k, strict)
    return True


def _solve_conjunction(atoms) -> Optional[dict]:
    """Exact sat check of a conjunction of atoms: a model, or None."""
    eqs, ineqs = [], []
    all_vars: set = set()
    for a in atoms:
        if not a.lhs.is_linear():
            raise SolverUnavailable(
                f"nonlinear constraint {a}: only linear arithmetic is supported"
            )
        all_vars.update(a.lhs.variables())
        (eqs if a.op == "==" else ineqs).append((a.op, a.lhs.primitive()))

    subst_log = []  # (var, row, coefficient of var), in substitution order
    # Gaussian phase: substitute equalities away
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

    # Fourier-Motzkin phase.  A row dropped for a tighter one over the
    # same terms bounds each variable less tightly, at every value of the
    # others, so the extreme bounds below, and the model, are the ones the
    # full set of rows gives.
    rows: dict = {}
    for op, p in ineqs:
        if not _add_row(rows, p, op == "<"):
            return None
    elim_log = []  # (var, lowers, uppers); rows are (poly, coefficient, strict)
    while rows:
        x = min(v for form in rows for m, _ in form for v, _ in m)
        lowers, uppers, kept = [], [], {}
        for form, (k, strict) in rows.items():
            # canonical terms: the constant's monomial () sorts first
            p = Poly._raw((((), k),) + form if k else form)
            c = p.coeff(x)
            if c == 0:
                kept[form] = (k, strict)
            elif c > 0:  # x <= -(p - c*x)/c
                uppers.append((p, c, strict))
            else:  # x >= -(p - c*x)/c
                lowers.append((p, c, strict))
        for pl, cl, ls in lowers:
            for pu, cu, us in uppers:
                # cu > 0 and -cl > 0, so this is the lower bound minus the
                # upper bound times cu*(-cl)
                if not _add_row(kept, (pl.scale(cu) + pu.scale(-cl)).primitive(), ls or us):
                    return None
        elim_log.append((x, lowers, uppers))
        rows = kept

    # model extraction by back substitution; variables that fell out of
    # every constraint are pinned to 0 first so recorded bounds evaluate.
    # A row p with coefficient c of x bounds x by -(p at x = 0)/c.
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
        else:  # x comes from a row, so it has a bound
            model[x] = min(hi) - 1
    for var, p, c in reversed(subst_log):
        model[var] = solved(var, p, c)
    return model


def solve_linear(expr) -> Optional[dict]:
    """Decide a (possibly disjunctive) linear constraint exactly: a model,
    or None when it is unsatisfiable."""
    if expr is True:
        return {}
    if expr is False:
        return None
    atoms, splits = _split_candidates(conjuncts(expr))
    if not splits:
        return _solve_conjunction(atoms)
    # split on the smallest disjunction first
    splits.sort(key=len)
    first, others = splits[0], splits[1:]
    base = list(atoms)
    for alt in first:
        model = solve_linear(band(alt, *base, *(Or(o) for o in others)))
        if model is not None:
            return model
    return None


@dataclass
class SolverStats:
    queries: int = 0
    by_class: dict = field(default_factory=dict)
    cache_hits: int = 0


_MISS = object()


class SmtCheck:
    """Memoizing, instrumented front door to `solve_linear`.

    `check` answers as `solve_linear` does: a model, or None when the
    constraint is unsatisfiable.  The model is the cached dict itself, so
    a caller that keeps or changes it copies it first.  Results are cached
    per constraint, keyed by the constraint itself: a boolean expression
    hashes and compares by the key it builds with itself (`_ckey`), so
    normalized constraints built apart hit one entry, and a hit compares
    ints and strings in C rather than Fractions in Python.  Every fresh solve is counted under the class
    the caller supplies ("internal" for control constraints, "env" for
    property and environment checks).

    A path condition reaches the checker irredundant (see
    `values.irredundant`): no inequality atom in it is implied by one
    other and the sign atoms.  The checker keeps the search's memo of that
    pruning, `pruned`, beside its own cache; both live as long as the
    search's context.
    """

    def __init__(self):
        self.stats = SolverStats()
        self._cache: dict = {}
        self.pruned: dict = {}  # each conjunction to its irredundant form

    def check(self, expr, cls: str = "internal") -> Optional[dict]:
        model = self._cache.get(expr, _MISS)
        if model is not _MISS:
            self.stats.cache_hits += 1
            return model
        self.stats.queries += 1
        self.stats.by_class[cls] = self.stats.by_class.get(cls, 0) + 1
        model = self._cache[expr] = solve_linear(expr)
        return model
