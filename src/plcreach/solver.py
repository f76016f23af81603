"""Satisfiability checking for path constraints.

The decision procedure handles linear rational arithmetic exactly:
equalities are removed by substitution, inequalities by Fourier-Motzkin
elimination, and disjunctions by case splitting; a disequality p != 0 is
split into p < 0 or p > 0.  Elimination is fraction-free: every row is
kept with int coefficients of gcd 1, and eliminating x from two rows adds
them times positive ints that cancel x, then divides by the content again.
That is the same constraint as dividing by the pivot, times a positive
number.  Rationals appear only in models: the log keeps each row with its
pivot coefficient, and extraction divides by it.  Model values are in the
form `values.rat` gives.
Every verdict is definite: sat with a model, or unsat.  A constraint
outside linear arithmetic raises SolverUnavailable rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .values import Cmp, Or, band, ckey, conjuncts, rat


class SolverUnavailable(Exception):
    """A constraint lies outside linear rational arithmetic."""


@dataclass(frozen=True)
class SmtVerdict:
    status: str  # "sat" | "unsat"
    model: Optional[dict] = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


SAT = "sat"
UNSAT = "unsat"


def _as_ineq(atom):
    """Map an atom to ("<=" | "<" | "==", poly) or raise SolverUnavailable."""
    if isinstance(atom, Cmp):
        if not atom.lhs.is_linear():
            raise SolverUnavailable(
                f"nonlinear constraint {atom}: only linear arithmetic is supported"
            )
        return atom.op, atom.lhs
    raise TypeError(f"not an atomic constraint: {atom!r}")


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


def _solve_conjunction(atoms):
    """Exact sat check of a conjunction of linear atoms.

    Returns (True, model) or (False, None).
    """
    eqs, ineqs = [], []
    all_vars: set = set()
    for a in atoms:
        op, p = _as_ineq(a)
        all_vars |= p.variables()
        (eqs if op == "==" else ineqs).append((op, p.primitive()))

    subst_log = []  # (var, row, coefficient of var), in substitution order
    # Gaussian phase: substitute equalities away
    while eqs:
        op, p = eqs.pop()
        if p.is_const():
            if p.const_value() != 0:
                return False, None
            continue
        var = p.names()[0]
        c = p.coeff(var)
        subst_log.append((var, p, c))
        eqs = [(o, _cancel(q, q.coeff(var), p, c)) for o, q in eqs]
        ineqs = [(o, _cancel(q, q.coeff(var), p, c)) for o, q in ineqs]

    # Fourier-Motzkin phase
    elim_log = []  # (var, lowers, uppers); rows are (poly, coefficient, strict)
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
            elif c > 0:  # x <= -(p - c*x)/c
                uppers.append((p, c, op == "<"))
            else:  # x >= -(p - c*x)/c
                lowers.append((p, c, op == "<"))
        combined = list(rest)
        for pl, cl, ls in lowers:
            for pu, cu, us in uppers:
                # cu > 0 and -cl > 0, so this is the lower bound minus the
                # upper bound times cu*(-cl)
                op = "<" if (ls or us) else "<="
                combined.append((op, (pl.scale(cu) + pu.scale(-cl)).primitive()))
        elim_log.append((x, lowers, uppers))
        ineqs = combined

    for op, p in ineqs:
        c = p.const_value()
        if op == "<=" and not c <= 0:
            return False, None
        if op == "<" and not c < 0:
            return False, None

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
        elif hi:
            model[x] = min(hi) - 1
        else:
            model[x] = 0
    for var, p, c in reversed(subst_log):
        model[var] = solved(var, p, c)
    return True, model


def solve_linear(expr) -> SmtVerdict:
    """Decide a (possibly disjunctive) linear constraint exactly."""
    if expr is True:
        return SmtVerdict(SAT, model={})
    if expr is False:
        return SmtVerdict(UNSAT)
    atoms, splits = _split_candidates(conjuncts(expr))
    if not splits:
        ok, model = _solve_conjunction(atoms)
        return SmtVerdict(SAT, model=model) if ok else SmtVerdict(UNSAT)
    # split on the smallest disjunction first
    splits.sort(key=len)
    first, others = splits[0], splits[1:]
    base = list(atoms)
    for alt in first:
        sub = band(alt, *base, *(Or(o) for o in others))
        v = solve_linear(sub)
        if not v.is_unsat:
            return v
    return SmtVerdict(UNSAT)


@dataclass
class SolverStats:
    queries: int = 0
    by_class: dict = field(default_factory=dict)
    cache_hits: int = 0


class SmtCheck:
    """Memoizing, instrumented front door to `solve_linear`.

    Results are cached per constraint, keyed by its `ckey` (True and False
    key themselves): normalized constraints are equal exactly when their
    `ckey`s are.  Each atom keeps its `ckey`, and a hit compares ints and
    strings in C rather than Fractions in Python.  Every fresh solve is
    counted under the class the caller supplies ("internal" for control
    constraints, "env" for property and environment checks).
    """

    def __init__(self):
        self.stats = SolverStats()
        self._cache: dict = {}

    def check(self, expr, cls: str = "internal") -> SmtVerdict:
        key = expr if isinstance(expr, bool) else ckey(expr)
        hit = self._cache.get(key)
        if hit is not None:
            self.stats.cache_hits += 1
            return hit
        self.stats.queries += 1
        self.stats.by_class[cls] = self.stats.by_class.get(cls, 0) + 1
        verdict = solve_linear(expr)
        self._cache[key] = verdict
        return verdict
