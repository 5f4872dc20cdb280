"""Adaptive-precision correctly-rounded evaluation (the Rival contract).

Given a real expression and an exact input point, compute the *correctly
rounded* result in a target float format: evaluate with interval arithmetic
at escalating working precision until the enclosure rounds to a single
floating-point value, exactly as Herbie/Chassis use the Rival library
(paper section 3.1).

Each rung passes its precision explicitly to every interval operation
(:mod:`repro.rival.interval`); nothing here touches mpmath's global ``mp``
context, so evaluators on different threads need no lock between them.
A point's variables are converted once and shared by every rung.
"""

from __future__ import annotations

import math

from mpmath.libmp import (
    finf, fnan, mpf_eq, mpf_ge, mpf_gt, mpf_le, mpf_lt, mpf_pos, to_float,
)

from ..formats import get_format
from ..ir.expr import App, Const, Expr, Num, Var
from ..ir.types import F64
from .interval import INTERVAL_OPS, RND, DomainError, Interval, constant

#: Working precisions tried in order (bits of significand).
DEFAULT_PRECISIONS = (80, 160, 320, 640, 1280)


class PrecisionExhausted(ArithmeticError):
    """The enclosure failed to converge at the highest working precision."""


def round_to_format(value: tuple, ty) -> float:
    """Round a raw libmp value correctly into float format ``ty``.

    Every registered format's values are representable exactly in a
    Python float, so the return type is float for all of them.  This is
    the compound rounding the numpy fast path mirrors: re-round the
    significand to the format's precision half-even at unbounded exponent,
    then apply the format's storage cast for overflow/subnormal semantics.
    """
    if value == fnan:
        return math.nan
    fmt = get_format(ty)
    return fmt.storage_clamp(to_float(mpf_pos(value, fmt.precision, RND), rnd=RND))


_INFINITY = Interval(finf, finf)


class Ambiguous(Exception):
    """A boolean condition could not be decided at this precision."""


class _Pass:
    """One point's leaves, converted once and shared by every rung."""

    __slots__ = ("point", "leaves")

    def __init__(self, point: dict[str, float]):
        self.point = point
        self.leaves: dict = {}

    def leaf(self, expr: Expr, prec: int) -> Interval:
        if isinstance(expr, Var):
            iv = self.leaves.get(expr.name)
            if iv is None:
                try:
                    value = self.point[expr.name]
                except KeyError:
                    raise KeyError(f"no value for variable {expr.name!r}") from None
                iv = self.leaves[expr.name] = Interval.point(value)
            return iv
        if isinstance(expr, Num):
            value = expr.value
            if value.denominator == 1:
                return Interval.point(value.numerator)
            num = Interval.point(value.numerator)
            den = Interval.point(value.denominator)
            return INTERVAL_OPS["/"](num, den, prec)
        if isinstance(expr, Const):
            enclosure = constant(expr.name, prec)
            if enclosure is not None:
                return enclosure
            if expr.name == "INFINITY":
                return _INFINITY
            if expr.name == "NAN":
                return Interval.error()
            raise DomainError(f"constant {expr.name} is not a real value")
        raise TypeError(f"not a leaf: {expr!r}")

    def interval(self, expr: Expr, prec: int) -> Interval:
        """One interval-arithmetic pass at working precision ``prec``."""
        if isinstance(expr, App):
            if expr.op == "if":
                cond = self.boolean(expr.args[0], prec)
                return self.interval(expr.args[1 if cond else 2], prec)
            fn = INTERVAL_OPS.get(expr.op)
            if fn is None:
                raise KeyError(f"no interval semantics for operator {expr.op!r}")
            args = [self.interval(a, prec) for a in expr.args]
            return fn(*args, prec)
        return self.leaf(expr, prec)

    def boolean(self, expr: Expr, prec: int) -> bool:
        """Decide a comparison/boolean expression exactly, or raise Ambiguous."""
        if isinstance(expr, Const):
            if expr.name == "TRUE":
                return True
            if expr.name == "FALSE":
                return False
        if not isinstance(expr, App):
            raise TypeError(f"not a boolean expression: {expr!r}")
        op = expr.op
        if op == "and":
            return self.boolean(expr.args[0], prec) and self.boolean(expr.args[1], prec)
        if op == "or":
            return self.boolean(expr.args[0], prec) or self.boolean(expr.args[1], prec)
        if op == "not":
            return not self.boolean(expr.args[0], prec)
        left = self.interval(expr.args[0], prec)
        right = self.interval(expr.args[1], prec)
        if left.err or right.err:
            raise DomainError(f"domain error inside condition {op}")
        if op == "<":
            if mpf_lt(left.hi, right.lo):
                return True
            if mpf_ge(left.lo, right.hi):
                return False
        elif op == "<=":
            if mpf_le(left.hi, right.lo):
                return True
            if mpf_gt(left.lo, right.hi):
                return False
        elif op == ">":
            if mpf_gt(left.lo, right.hi):
                return True
            if mpf_le(left.hi, right.lo):
                return False
        elif op == ">=":
            if mpf_ge(left.lo, right.hi):
                return True
            if mpf_lt(left.hi, right.lo):
                return False
        elif op == "==":
            if left.is_point() and right.is_point() and mpf_eq(left.lo, right.lo):
                return True
            if mpf_lt(left.hi, right.lo) or mpf_lt(right.hi, left.lo):
                return False
        elif op == "!=":
            if mpf_lt(left.hi, right.lo) or mpf_lt(right.hi, left.lo):
                return True
            if left.is_point() and right.is_point() and mpf_eq(left.lo, right.lo):
                return False
        else:
            raise KeyError(f"unknown predicate {op!r}")
        raise Ambiguous(op)


class RivalEvaluator:
    """Correctly-rounded evaluation of real expressions at exact points."""

    def __init__(self, precisions: tuple[int, ...] = DEFAULT_PRECISIONS):
        self.precisions = precisions
        #: Correctly-rounded evaluations performed by this evaluator.
        #: Plain ints, not locked: in-process callers serialize on the
        #: session's oracle lock, and per-worker instances are
        #: single-threaded — their counts travel home as
        #: ``JobOutcome.oracle`` deltas and merge into
        #: ``SessionStats.rival`` under the session lock.
        self.evals = 0
        #: Evaluations that needed more than the lowest working precision.
        self.escalations = 0

    def eval(self, expr: Expr, point: dict[str, float], ty: str = F64) -> float:
        """The correctly rounded value of ``expr`` at ``point`` in format ``ty``.

        Raises :class:`DomainError` when the expression is undefined at the
        point, and :class:`PrecisionExhausted` when the enclosure will not
        converge (e.g. comparing identical quantities for equality).
        """
        self.evals += 1
        last_issue = "did not converge"
        run = _Pass(point)
        for index, prec in enumerate(self.precisions):
            try:
                result = run.interval(expr, prec)
            except Ambiguous:
                last_issue = "ambiguous condition"
                continue
            if result.err:
                last_issue = "possible domain error"
                continue
            lo = round_to_format(result.lo, ty)
            hi = round_to_format(result.hi, ty)
            if lo == hi:
                if index:
                    self.escalations += 1
                return lo
        if last_issue == "possible domain error":
            raise DomainError("domain error persisted at maximum precision")
        raise PrecisionExhausted(last_issue)

    def eval_bool(self, expr: Expr, point: dict[str, float]) -> bool:
        """Decide a boolean expression (e.g. an FPCore precondition)."""
        run = _Pass(point)
        for prec in self.precisions:
            try:
                return run.boolean(expr, prec)
            except Ambiguous:
                continue
        raise PrecisionExhausted("ambiguous condition at maximum precision")

    def defined_at(self, expr: Expr, point: dict[str, float], ty: str = F64) -> bool:
        """True when the expression has a finite correctly-rounded value."""
        try:
            value = self.eval(expr, point, ty)
        except (DomainError, PrecisionExhausted, KeyError):
            return False
        return math.isfinite(value)
