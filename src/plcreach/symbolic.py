"""Constraint-side helpers for symbolic runs.

Fresh variables come from a counter stored in the system state, so every
run names them identically.  Duration variables are prefixed `_d`, free
input variables `_u`; the leading underscore marks a name as renameable
when states are canonicalized.
"""

from __future__ import annotations

from fractions import Fraction

from .model import SystemState
from .solver import SmtCheck
from .values import Poly, band, conjuncts, copy_with, evaluate, irredundant, rat, variables


def fresh_var(s: SystemState, prefix: str):
    """Allocate one fresh symbolic variable; returns (state, Poly)."""
    name = f"_{prefix}{s.fresh_counter}"
    return copy_with(s, fresh_counter=s.fresh_counter + 1), Poly.var(name)


def feasible(checker: SmtCheck, s: SystemState, *guards, cls: str = "internal"):
    """`s` with `guards` conjoined to its path condition, or False when
    the result is unsatisfiable, which is when the checker finds no model.

    A decided guard (a bool) costs no solver call: every stored state's
    path condition is satisfiable, so adding only True keeps it so, and
    then `s` itself comes back.

    The conjunction is made irredundant before the checker sees it
    (`values.irredundant`, memoised on the checker): no inequality atom
    stays that one other and the sign atoms imply.  So the solver decides,
    and the state keeps, the shorter condition.
    """
    parts = [g for g in guards if g is not True]
    if not parts:
        return s
    cond = band(*s.constraints, *parts)
    if cond is False:
        return False
    cond = irredundant(cond, checker.pruned)
    if checker.check(cond, cls) is None:
        return False
    return copy_with(s, constraints=conjuncts(cond))


def concrete_or_none(v):
    """A Fraction/int if the value is concrete, else None."""
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return v
    if isinstance(v, Poly) and v.is_const():
        return v.const_value()
    return None


def evaluate_path(s: SystemState, assignment: dict) -> bool:
    """Check every collected conjunct under a concrete assignment."""
    full = {name: 0 for c in s.constraints for name in variables(c)}
    full.update({k: rat(v) for k, v in assignment.items()})
    return all(evaluate(c, full) for c in s.constraints)
