"""Exact value domain shared by the concrete and symbolic engines.

Concrete runtime values are Python bool/int/str and fractions.Fraction.
Symbolic real values are Poly: a normalized polynomial over named variables
with rational coefficients.  Symbolic booleans are BoolExpr trees of And and
Or whose atoms are polynomial comparisons against zero: `p <= 0`, `p < 0`,
`p == 0` and `p != 0`.  There is no negation node; `bnot` pushes a
negation down to the atoms and flips each one.  Every structure here is
immutable and hashable so machine states can be shared and canonicalized.

An atom's polynomial is primitive: its coefficients are ints with gcd 1.
`_norm_cmp` gets there by multiplying by the lcm of the denominators and
dividing by the gcd of the numerators, a positive factor for `<=` and `<`;
for `==` and `!=` the sign is fixed too, so that the first term's
coefficient is positive.  So `x - 10 <= 0` stays as written, `x/2 <= 3`
becomes `x - 6 <= 0`, and equal constraints built apart are one atom.
Negating an atom or renaming its variables keeps the coefficients
primitive; only the sign of an `==`/`!=` atom may need flipping again.

Every rational number, concrete or a coefficient, is kept in the one form
`rat` gives: an int when it is integral, else a Fraction with denominator
> 1; never a float, and never a bool where a number is meant.  Every
arithmetic result here goes through `rat`.  Python's ints are native, so
the common integral case never runs `fractions.py`, and an int equals and
hashes like the Fraction it stands for.

A Poly's `terms` are canonical: monomials strictly increasing, every
coefficient a nonzero rational in that form.  Sums merge two such tuples
(`_merged`) into a Poly built by `_raw`, which checks nothing.  A Poly
hashes itself when it is built, and a boolean expression builds its key
(`_ckey`) and hash with itself: an atom from its operator and its
polynomial's terms, an And or Or from its parts' keys.  Neither can go
stale, because no value here changes after it is built.

Runtime values are ordered one way, by `order_key`: first by kind, so
that `1` and `True` stay apart, then by value.  Its masked form, which
reads every fresh name as `#`, is the order that canonical keys name
fresh variables in; the plain form sorts link buffers.

Which values are symbolic, and how to list, rename, substitute or evaluate
their variables, is decided here alone, by `variables`, `rename`,
`substitute` and `evaluate`; they accept any runtime value.  So is whether
a comparison is decided: `cmp_le`, `cmp_lt` and `cmp_eq` return a bool when
neither operand is a Poly (or when the difference folds to a constant), and
a comparison atom only when a variable remains.

Renaming (`Poly.rename`, `rename`) builds a new value on every call.  A
search renames each value once per naming of its variables, through the
memo that `model.canonicalize` keeps, so one renamed value is shared by
every canonical key that holds it and must never be mutated.

All time arithmetic in the package goes through `vadd`, `vsub` and `monus`
(truncated subtraction), over rationals or Poly; floats never enter the
value domain.

Every frozen record of the package (states, machines, links, messages,
configurations) is copied with changed fields by `copy_with`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

# monomial: ((var, power), ...) sorted by var name; () is the constant term
Monomial = tuple


def rat(x):
    """The engine's form of the rational `x`: an int when it is integral,
    else a Fraction with denominator > 1.

    Accepts ints, Fractions, strings like '3/4', and floats (read through
    their decimal repr); a bool counts as 0 or 1.  A string that names no
    rational, '1/0' included, raises ValueError.  Every number the engine
    loads or computes passes through here, so no value is a float, no
    integral value a Fraction, and equal numbers have one class.  An int
    equals, and hashes like, the Fraction it stands for, so keys built
    from either form compare alike.
    """
    cls = x.__class__
    if cls is int:
        return x
    if cls is Fraction:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):  # bool
        return int(x)
    if isinstance(x, str):
        try:
            return rat(Fraction(x))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        # floats only appear via JSON configs; convert through repr so that
        # "0.5" means one half, not the binary float neighborhood
        return rat(Fraction(str(x)))
    raise TypeError(f"cannot interpret {x!r} as a rational")


class Poly:
    """Polynomial over real variables, kept in a canonical sorted form."""

    __slots__ = ("terms", "_hash", "_names")

    def __init__(self, terms: Mapping[Monomial, Fraction] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for mono, c in items:
            c = rat(c)
            if c:
                acc[mono] = acc.get(mono, 0) + c
        self.terms = tuple(sorted((m, rat(c)) for m, c in acc.items() if c))
        self._hash = hash(self.terms)

    @classmethod
    def _raw(cls, terms: tuple) -> "Poly":
        # terms must already be canonical: sorted, nonzero coefficients in
        # the form `rat` gives
        p = cls.__new__(cls)
        p.terms = terms
        p._hash = hash(terms)
        return p

    @staticmethod
    def const(c) -> "Poly":
        c = rat(c)
        return Poly._raw((((), c),) if c else ())

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly._raw(((((name, 1),), 1),))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_const(self) -> bool:
        return all(m == () for m, _ in self.terms)

    def const_value(self):
        if not self.terms:
            return 0
        if self.is_const():
            return self.terms[0][1]
        raise ValueError(f"{self} is not constant")

    def variables(self) -> tuple:
        """The variable names, sorted; computed on first use and kept."""
        try:
            return self._names
        except AttributeError:
            self._names = tuple(sorted({v for m, _ in self.terms for v, _ in m}))
            return self._names

    def degree(self) -> int:
        return max((sum(p for _, p in m) for m, _ in self.terms), default=0)

    def is_linear(self) -> bool:
        return self.degree() <= 1

    def coeff(self, name: str):
        """Coefficient of the degree-1 term in name (linear use only)."""
        return dict(self.terms).get(((name, 1),), 0)

    def drop(self, name: str) -> "Poly":
        return Poly._raw(
            tuple(t for t in self.terms if all(v != name for v, _ in t[0]))
        )

    def __add__(self, other):
        return Poly._raw(_merged(self.terms, as_poly(other).terms))

    __radd__ = __add__

    def __neg__(self):
        # monomials are distinct, so term order survives sign flips
        return Poly._raw(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-as_poly(other))

    def __rsub__(self, other):
        return as_poly(other) + (-self)

    def __mul__(self, other):
        other = as_poly(other)
        acc: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Poly(acc)

    __rmul__ = __mul__

    def scale(self, k) -> "Poly":
        k = rat(k)
        if not k:
            return Poly._raw(())
        return Poly._raw(tuple((m, rat(c * k)) for m, c in self.terms))

    def primitive(self, pin_sign: bool = False) -> "Poly":
        """This polynomial times the rational that makes every coefficient
        an int and their gcd 1: a positive one, which with `pin_sign` also
        makes the first coefficient positive.  `self` when that is 1."""
        terms = self.terms
        if not terms:
            return self
        den = 1
        for _, c in terms:
            if c.__class__ is not int:
                den = lcm(den, c.denominator)
        nums = [c for _, c in terms] if den == 1 else [
            c.numerator * (den // c.denominator) for _, c in terms
        ]
        g = gcd(*nums)
        if pin_sign and nums[0] < 0:
            g = -g
        if g == 1 and den == 1:
            return self
        return Poly._raw(tuple((m, n // g) for (m, _), n in zip(terms, nums)))

    def rename(self, names: Mapping[str, str]) -> "Poly":
        """Injective variable renaming; much cheaper than substitute."""
        if not names:
            return self
        return Poly._raw(tuple(_renamed_terms(self, names)))

    def substitute(self, mapping: Mapping[str, "Poly | Fraction | int"]) -> "Poly":
        acc: dict = {}
        for m, c in self.terms:
            # c times the variables of m left alone, times each Poly factor;
            # a rational replacement folds into c without building a Poly
            kept = []
            factors = []
            for v, p in m:
                rep = mapping.get(v)
                if rep is None:
                    kept.append((v, p))
                elif isinstance(rep, Poly):
                    factors.extend([rep] * p)
                else:
                    c *= rat(rep) ** p
            part = {tuple(kept): c}
            for f in factors:
                nxt: dict = {}
                for m1, c1 in part.items():
                    for m2, c2 in f.terms:
                        mm = _mono_mul(m1, m2) if m1 else m2
                        nxt[mm] = nxt.get(mm, 0) + c1 * c2
                part = nxt
            for mm, cc in part.items():
                acc[mm] = acc.get(mm, 0) + cc
        return Poly(acc)

    def evaluate(self, assignment: Mapping):
        total = 0
        for m, c in self.terms:
            val = c
            for v, p in m:
                val *= rat(assignment[v]) ** p
            total += val
        return rat(total)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            body = "*".join(v if p == 1 else f"{v}^{p}" for v, p in m)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def _merged(a: tuple, b: tuple) -> tuple:
    """The canonical terms of a + b: one merge of the two sorted term
    tuples, dropping the terms that cancel."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (ma, ca), (mb, cb) = a[i], b[j]
        if ma < mb:
            out.append(a[i])
            i += 1
        elif mb < ma:
            out.append(b[j])
            j += 1
        else:
            c = rat(ca + cb)
            if c:
                out.append((ma, c))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    acc: dict[str, int] = {}
    for v, p in m1:
        acc[v] = acc.get(v, 0) + p
    for v, p in m2:
        acc[v] = acc.get(v, 0) + p
    return tuple(sorted(acc.items()))


def _renamed_terms(p: Poly, names: Mapping[str, str]) -> list:
    """The terms of `p` renamed and sorted."""
    out = [(tuple(sorted([(names.get(v, v), e) for v, e in m])), c) for m, c in p.terms]
    out.sort()
    return out


def as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly.const(rat(x))


# ---------------------------------------------------------------------------
# boolean expressions


class _Keyed:
    """A boolean expression builds its key, `_ckey`, and hash with itself.
    Two are equal exactly when their keys are.  An atom's coefficients are
    primitive ints, so comparing or hashing keys goes through ints and
    strings in C, never through a Fraction."""

    __slots__ = ("_ckey", "_hash")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._ckey == other._ckey)


class Cmp(_Keyed):
    """Atomic constraint: lhs op 0, with op one of <=, <, ==, !=."""

    __slots__ = ("op", "lhs")

    def __init__(self, op: str, lhs: Poly):
        self.op = op
        self.lhs = lhs
        self._ckey = (1, op, lhs.terms)
        self._hash = hash(self._ckey)

    def __repr__(self):
        return f"({self.lhs} {self.op} 0)"


class And(_Keyed):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        self.args = args
        self._ckey = (2, tuple([a._ckey for a in args]))
        self._hash = hash(self._ckey)

    def __repr__(self):
        return "(" + " and ".join(map(repr, self.args)) + ")"


class Or(_Keyed):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        self.args = args
        self._ckey = (3, tuple([a._ckey for a in args]))
        self._hash = hash(self._ckey)

    def __repr__(self):
        return "(" + " or ".join(map(repr, self.args)) + ")"


BoolExpr = Union[Cmp, And, Or]


_HOLDS = {"<=": operator.le, "<": operator.lt, "==": operator.eq, "!=": operator.ne}


def _holds(op: str, x) -> bool:
    """Does the atom `x op 0` hold for a concrete x?"""
    return _HOLDS[op](x, 0)


def _norm_cmp(op: str, lhs: Poly):
    """The atom `lhs op 0` in primitive form, or its bool when `lhs` is
    constant.

    The polynomial is scaled to int coefficients with gcd 1, by a positive
    factor for `<=` and `<` (which keeps their direction); `==` and `!=`
    are sign-free, so their factor also makes the first coefficient
    positive.  Atoms that differ only by such a factor are then equal.
    """
    if lhs.is_const():
        return _holds(op, lhs.const_value())
    return Cmp(op, lhs.primitive(op == "==" or op == "!="))


def cmp_le(a, b):
    if isinstance(a, Poly) or isinstance(b, Poly):
        return _norm_cmp("<=", as_poly(a) - as_poly(b))
    return a <= b


def cmp_lt(a, b):
    if isinstance(a, Poly) or isinstance(b, Poly):
        return _norm_cmp("<", as_poly(a) - as_poly(b))
    return a < b


def cmp_eq(a, b):
    if isinstance(a, Poly) or isinstance(b, Poly):
        return _norm_cmp("==", as_poly(a) - as_poly(b))
    return a == b


def bnot(e):
    if isinstance(e, bool):
        return not e
    if isinstance(e, Cmp):
        # not(p <= 0) is -p < 0, not(p < 0) is -p <= 0; -p is primitive
        # when p is, and the sign of an ==/!= atom carries over
        if e.op == "<=":
            return Cmp("<", -e.lhs)
        if e.op == "<":
            return Cmp("<=", -e.lhs)
        return Cmp("!=" if e.op == "==" else "==", e.lhs)
    if isinstance(e, And):
        return bor(*(bnot(a) for a in e.args))
    if isinstance(e, Or):
        return band(*(bnot(a) for a in e.args))
    raise TypeError(f"not a boolean expression: {e!r}")


def band(*es):
    flat = []
    for e in es:
        if e is True:
            continue
        if e is False:
            return False
        if isinstance(e, And):
            flat.extend(e.args)
        else:
            flat.append(e)
    uniq = sorted(set(flat), key=ckey_of)
    if not uniq:
        return True
    if len(uniq) == 1:
        return uniq[0]
    return And(tuple(uniq))


def bor(*es):
    flat = []
    for e in es:
        if e is False:
            continue
        if e is True:
            return True
        if isinstance(e, Or):
            flat.extend(e.args)
        else:
            flat.append(e)
    uniq = sorted(set(flat), key=ckey_of)
    if not uniq:
        return False
    if len(uniq) == 1:
        return uniq[0]
    return Or(tuple(uniq))


def conjuncts(e) -> tuple:
    """Flatten a constraint into its top-level conjuncts."""
    if e is True:
        return ()
    if isinstance(e, And):
        return e.args
    return (e,)


def irredundant(cond, memo: dict = None):
    """`cond`, a conjunction as `band` builds it, without the inequality
    atoms that one other kept inequality atom and the sign atoms imply.

    A sign atom is strict over one variable with coefficient 1 or -1:
    `-x < 0` (x is positive) or `x < 0`.  The atom `a` falls to the atom
    `b` when `a.lhs - b.lhs` is a constant `k <= 0` plus terms `c*x` that
    are each `<= 0` by a kept sign atom of `x` other than `a` itself; a
    strict `a` also needs a strict `b`, `k < 0` or some such term, which
    a strict sign atom makes negative.  So `-x <= 0` falls to `-x < 0`,
    `v - 20 <= 0` to `v - 10 <= 0`, and `_d0 - 5 <= 0` to
    `_d0 + _d1 - 5 <= 0` beside `-_d1 < 0`.  The atoms are tried in the
    conjunction's order, each against the atoms not dropped before it, so
    the kept atoms imply every dropped one, and pruning the result again
    drops nothing.  Equalities, disequalities and disjunctions stay.

    `memo`, one dict per search, maps each conjunction to its result.
    """
    if cond.__class__ is not And:
        return cond
    if memo is not None:
        got = memo.get(cond)
        if got is not None:
            return got
    rows = []  # (atom, constant, {monomial: coefficient}, strict)
    signs = {}  # (variable, coefficient) -> index of that sign atom
    for a in cond.args:
        if a.__class__ is not Cmp or (a.op != "<" and a.op != "<="):
            continue
        terms = a.lhs.terms
        k, form = (terms[0][1], terms[1:]) if terms[0][0] == () else (0, terms)
        if a.op == "<" and not k and len(form) == 1:
            ((mono, c),) = form
            if len(mono) == 1 and mono[0][1] == 1 and (c == 1 or c == -1):
                signs[mono[0][0], c] = len(rows)
        rows.append((a, k, dict(form), a.op == "<"))
    dropped: set = set()
    for i, (_, ka, fa, sa) in enumerate(rows):
        for j, (_, kb, fb, sb) in enumerate(rows):
            if j != i and j not in dropped and kb >= ka and _falls(
                    i, fa, fb, signs, dropped, sa and not sb and kb == ka):
                dropped.add(i)
                break
    if not dropped:
        out = cond
    else:
        gone = {rows[i][0] for i in dropped}
        kept = tuple([a for a in cond.args if a not in gone])
        out = kept[0] if len(kept) == 1 else And(kept)
    if memo is not None:
        memo[cond] = out
    return out


def _falls(i, fa: dict, fb: dict, signs: dict, dropped: set, needs_term: bool) -> bool:
    """Are the non-constant terms of row `i` minus those of another row,
    `fa - fb`, each `<= 0` by a kept sign atom other than row `i`?  With
    `needs_term`, one such term must be nonzero, which makes it `< 0`."""
    seen = False
    for m, c in fa.items():
        d = c - fb.get(m, 0)
        if d:
            if not _signed(i, m, d, signs, dropped):
                return False
            seen = True
    for m, c in fb.items():
        if m not in fa:
            if not _signed(i, m, -c, signs, dropped):
                return False
            seen = True
    return seen or not needs_term


def _signed(i, m, d, signs: dict, dropped: set) -> bool:
    """Is `d` times the monomial `m` `<= 0` by a kept sign atom other than
    row `i`?  The sign atom `c*x < 0` makes `d*x <= 0` when `d` has the
    sign of `c`."""
    if len(m) != 1 or m[0][1] != 1:
        return False
    j = signs.get((m[0][0], 1 if d > 0 else -1))
    return j is not None and j != i and j not in dropped


# ---------------------------------------------------------------------------
# variables of any runtime value
#
# Poly and the boolean expressions over it are the symbolic values.  Every
# other runtime value (bool, int, Fraction, str, rcvError, a block
# instance) is concrete: it has no variables and comes back unchanged.


def variables(v) -> tuple:
    """The names of the symbolic variables in `v`, sorted.

    The one form of a variable list: a Poly keeps its own, and a caller
    that needs a set builds it.
    """
    cls = v.__class__
    if cls is Poly:
        return v.variables()
    if cls is Cmp:
        return v.lhs.variables()
    if cls is And or cls is Or:
        return tuple(sorted({n for a in v.args for n in variables(a)}))
    return ()


def rename(v, names: Mapping[str, str]):
    """Injective variable renaming; keeps atoms atoms, so no solver folding."""
    if isinstance(v, Poly):
        return v.rename(names)
    if isinstance(v, Cmp):
        terms = _renamed_terms(v.lhs, names)
        # renaming keeps the coefficients primitive but can reorder the
        # terms, so an ==/!= atom may need its first coefficient made
        # positive again
        if terms[0][1] < 0 and (v.op == "==" or v.op == "!="):
            terms = [(m, -c) for m, c in terms]
        return Cmp(v.op, Poly._raw(tuple(terms)))
    if isinstance(v, And):
        return band(*(rename(a, names) for a in v.args))
    if isinstance(v, Or):
        return bor(*(rename(a, names) for a in v.args))
    return v


def substitute(v, mapping: Mapping):
    """Replace variables by Polys or rationals.

    A polynomial that becomes constant comes back as its number, and a
    comparison that becomes constant as its bool.  A polynomial whose every
    variable maps to an int or Fraction is evaluated without building one.
    """
    if isinstance(v, Poly):
        if all(isinstance(mapping.get(n), (int, Fraction)) for m, _ in v.terms for n, _ in m):
            return v.evaluate(mapping)
        out = v.substitute(mapping)
        return out.const_value() if out.is_const() else out
    if isinstance(v, Cmp):
        return _norm_cmp(v.op, v.lhs.substitute(mapping))
    if isinstance(v, And):
        return band(*(substitute(a, mapping) for a in v.args))
    if isinstance(v, Or):
        return bor(*(substitute(a, mapping) for a in v.args))
    return v


def evaluate(v, assignment: Mapping):
    """The concrete value of `v` when every variable in it is assigned."""
    if isinstance(v, Poly):
        return v.evaluate(assignment)
    if isinstance(v, Cmp):
        return _holds(v.op, v.lhs.evaluate(assignment))
    if isinstance(v, And):
        return all(evaluate(a, assignment) for a in v.args)
    if isinstance(v, Or):
        return any(evaluate(a, assignment) for a in v.args)
    return v


# Names under which callers outside the package use the two on booleans.
bool_variables = variables
bool_evaluate = evaluate


# ---------------------------------------------------------------------------
# runtime value helpers; the evaluator works over this mixed domain


@dataclass(frozen=True)
class RcvError:
    """Sentinel pushed by failed receives; compares equal only to itself."""

    def __repr__(self):
        return "rcvError"


RCV_ERROR = RcvError()


def is_numeric(v) -> bool:
    return isinstance(v, (int, Fraction, Poly)) and not isinstance(v, bool)


def is_boolish(v) -> bool:
    return isinstance(v, (bool, Cmp, And, Or))


class EvalError(Exception):
    """Runtime evaluation fault: type mismatch, division by zero, etc."""


def _num(v):
    if not is_numeric(v):
        raise EvalError(f"expected a numeric value, got {v!r}")
    return v


def vadd(a, b):
    a, b = _num(a), _num(b)
    if isinstance(a, Poly) or isinstance(b, Poly):
        return as_poly(a) + as_poly(b)
    return rat(a + b)


def vsub(a, b):
    a, b = _num(a), _num(b)
    if isinstance(a, Poly) or isinstance(b, Poly):
        return as_poly(a) - as_poly(b)
    return rat(a - b)


def vmul(a, b):
    a, b = _num(a), _num(b)
    if isinstance(a, Poly) or isinstance(b, Poly):
        return as_poly(a) * as_poly(b)
    return rat(a * b)


def vneg(a):
    a = _num(a)
    return -a if isinstance(a, Poly) else rat(-a)


def vdiv(a, b):
    a, b = _num(a), _num(b)
    if isinstance(b, Poly):
        if not b.is_const():
            raise EvalError("division by a symbolic value is not supported")
        b = b.const_value()
    if b == 0:
        raise EvalError("division by zero")
    if isinstance(a, Poly):
        return a.scale(Fraction(1) / b)
    return rat(Fraction(a) / b)


def vcmp(op: str, a, b):
    """Relational operators; returns bool or a BoolExpr for symbolic args."""
    if isinstance(a, (str, RcvError)) or isinstance(b, (str, RcvError)):
        if op not in ("=", "<>"):
            raise EvalError(f"ordering is undefined for {a!r} and {b!r}")
        # rcvError compares with any value; a text only with a text
        if not (isinstance(a, RcvError) or isinstance(b, RcvError) or type(a) is type(b)):
            raise EvalError(f"type mismatch comparing {a!r} and {b!r}")
        return a == b if op == "=" else a != b
    if is_boolish(a) or is_boolish(b):
        if not (is_boolish(a) and is_boolish(b)):
            raise EvalError(f"type mismatch comparing {a!r} and {b!r}")
        if op == "=":
            if isinstance(a, bool) and isinstance(b, bool):
                return a == b
            return bor(band(a, b), band(bnot(a), bnot(b)))
        if op == "<>":
            return bnot(vcmp("=", a, b))
        raise EvalError("ordering is undefined for booleans")
    a, b = _num(a), _num(b)
    if op == "=":
        return cmp_eq(a, b)
    if op == "<>":
        return bnot(cmp_eq(a, b))
    if op == "<":
        return cmp_lt(a, b)
    if op == "<=":
        return cmp_le(a, b)
    if op == ">":
        return cmp_lt(b, a)
    if op == ">=":
        return cmp_le(b, a)
    raise EvalError(f"unknown comparison {op}")


def vand(a, b):
    if not (is_boolish(a) and is_boolish(b)):
        raise EvalError(f"AND expects booleans, got {a!r}, {b!r}")
    return band(a, b)


def vor(a, b):
    if not (is_boolish(a) and is_boolish(b)):
        raise EvalError(f"OR expects booleans, got {a!r}, {b!r}")
    return bor(a, b)


def vnot(a):
    if not is_boolish(a):
        raise EvalError(f"NOT expects a boolean, got {a!r}")
    return bnot(a)


# ---------------------------------------------------------------------------
# time arithmetic: a number when concrete, Poly once symbolic

INF = float("inf")  # only as an mte result, never stored in a state


def monus(t, d):
    """Truncated subtraction max(t - d, 0) for concrete times; symbolic
    times subtract plainly and rely on constraints for bounds."""
    r = vsub(t, d)
    return r if isinstance(r, Poly) or r > 0 else 0


# ---------------------------------------------------------------------------
# the one order over runtime values


# The key of a Cmp, And or Or, read in C: the sort key of `band`, `bor`
# and the canonical form, whose items are only boolean expressions.
ckey_of = operator.attrgetter("_ckey")


def is_fresh(name: str) -> bool:
    """Is `name` a fresh variable (`symbolic.fresh_var`), one that a
    canonical key may rename?"""
    return name.startswith("_")


def order_key(v, mask: bool = False) -> tuple:
    """A key that orders any two runtime values.

    The kind comes first, so that `1` and `True` stay apart: a number, a
    Poly, a bool, a str, a boolean expression, a tuple, and anything else
    (rcvError, a block instance) by its `repr`.  Then the value: a Poly by
    its terms, a boolean expression by its `_ckey`, a tuple item by item.
    With `mask`, every fresh name reads as `#`, so that values which
    differ only in the names of their fresh variables (and keep them in
    the same term order) have one key.
    """
    cls = v.__class__
    if cls is int or cls is Fraction:
        return (0, v)
    if cls is Poly:
        return (1, _masked_terms(v.terms) if mask else v.terms)
    if cls is bool:
        return (2, v)
    if cls is str:
        return (3, v)
    if cls is Cmp or cls is And or cls is Or:
        return (4, _masked_ckey(v) if mask else v._ckey)
    if cls is tuple:
        return (5, tuple([order_key(x, mask) for x in v]))
    return (6, repr(v))


def _masked_terms(terms: tuple) -> tuple:
    return tuple([(tuple([("#" if is_fresh(n) else n, e) for n, e in m]), c) for m, c in terms])


def _masked_ckey(e) -> tuple:
    """The `_ckey` of a boolean expression with its fresh names masked."""
    if e.__class__ is Cmp:
        return (1, e.op, _masked_terms(e.lhs.terms))
    return (e._ckey[0], tuple([_masked_ckey(a) for a in e.args]))


# ---------------------------------------------------------------------------
# copying frozen records


# The caches that records keep in their instance dicts: a hash (`KConfig`,
# `Options`, syntax-tree nodes), a configuration's variables
# (`kmachine.config_vars`), and the canonical and exact key pieces of
# machines and links (`model`).  A cache kept under any other name makes
# `copy_with` raise.
CACHES = ("_hash", "_vars", "_key_piece", "_exact_piece")


def copy_with(obj, **changes):
    """A copy of the dataclass instance `obj` with some fields changed.

    `dataclasses.replace` without its walk of `fields()` and its trip
    through `__init__` on every call.  The instance dict is copied and
    the entries named in `CACHES` dropped, so a cache never survives into
    a copy whose fields differ.  An unknown field name raises TypeError,
    as `replace` does.
    """
    cls = obj.__class__
    names = cls.__dataclass_fields__
    new = object.__new__(cls)
    fields = new.__dict__
    fields.update(obj.__dict__)
    # An instance dict holds every field; anything more is a cache.
    if len(fields) != len(names):
        for name in CACHES:
            fields.pop(name, None)
    fields.update(changes)
    # Only a name that is not a field can grow the dict.
    if len(fields) != len(names):
        raise TypeError(f"{cls.__name__} has no field(s) {sorted(fields.keys() - names.keys())}")
    return new
