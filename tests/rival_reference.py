"""The mpmath escalation ladder as it was before it moved to raw libmp
values, frozen for differential tests.

A verbatim copy of ``rival/interval.py`` and ``rival/eval.py`` that
computes on ``mpf`` objects under ``mp.workprec``: every endpoint is
re-rounded to the working precision in ``Interval.__init__``, and every
operation reads the precision from the process-global ``mp`` context.
``tests/test_rival_ladder.py`` runs it beside :mod:`repro.rival` and
compares every endpoint at every rung.  The only edits: ``DomainError``,
``PrecisionExhausted`` and ``DEFAULT_PRECISIONS`` come from
:mod:`repro.rival`, so exception types compare equal.  Not thread-safe.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import mp, mpf

from repro.formats import get_format
from repro.ir.expr import App, Const, Expr, Num, Var
from repro.ir.types import F64
from repro.rival import DEFAULT_PRECISIONS, DomainError, PrecisionExhausted


class Interval:
    """A closed real interval ``[lo, hi]`` with a possible-error flag.

    ``err=True`` means the true result *may* be a domain error (the input
    enclosure straddles a singularity or domain edge); the adaptive
    evaluator treats it as "escalate precision, and give up if it persists".
    """

    __slots__ = ("lo", "hi", "err")

    def __init__(self, lo, hi, err: bool = False):
        self.lo = mpf(lo)
        self.hi = mpf(hi)
        self.err = err
        if not err and not (self.lo <= self.hi):
            if mpmath.isnan(self.lo) or mpmath.isnan(self.hi):
                self.err = True
            else:
                raise ValueError(f"inverted interval [{lo}, {hi}]")

    # --- constructors -----------------------------------------------------------

    @staticmethod
    def point(value) -> "Interval":
        """An exact (width-zero) interval; value must be mpf-representable."""
        v = _exact(value)
        return Interval(v, v)

    @staticmethod
    def error() -> "Interval":
        """A certainly-erroneous interval."""
        return Interval(mpf("nan"), mpf("nan"), err=True)

    # --- inspection --------------------------------------------------------------

    def is_point(self) -> bool:
        return not self.err and self.lo == self.hi

    def width(self) -> mpf:
        return self.hi - self.lo

    def contains(self, value) -> bool:
        v = mpf(value)
        return not self.err and self.lo <= v <= self.hi

    def contains_zero(self) -> bool:
        return not self.err and self.lo <= 0 <= self.hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", err" if self.err else ""
        return f"Interval({mpmath.nstr(self.lo, 12)}, {mpmath.nstr(self.hi, 12)}{flag})"


def _exact(value) -> mpf:
    """Convert a float/int/Fraction exactly to mpf (no rounding)."""
    if isinstance(value, Fraction):
        with mp.workprec(max(mp.prec, 256)):
            return mpf(value.numerator) / mpf(value.denominator)
    return mpf(value)


# --- outward widening ------------------------------------------------------------


def _down(x: mpf) -> mpf:
    """A value certainly <= the true value that ``x`` approximates."""
    if mpmath.isinf(x) or mpmath.isnan(x):
        return x
    margin = abs(x) * mpf(2) ** (3 - mp.prec) + mpf(2) ** (-mp.prec - 1080)
    return x - margin


def _up(x: mpf) -> mpf:
    """A value certainly >= the true value that ``x`` approximates."""
    if mpmath.isinf(x) or mpmath.isnan(x):
        return x
    margin = abs(x) * mpf(2) ** (3 - mp.prec) + mpf(2) ** (-mp.prec - 1080)
    return x + margin


def _widened(lo: mpf, hi: mpf) -> Interval:
    return Interval(_down(lo), _up(hi))


# --- exact endpoint arithmetic -----------------------------------------------------


def iadd(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    return _widened(a.lo + b.lo, a.hi + b.hi)


def isub(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    return _widened(a.lo - b.hi, a.hi - b.lo)


def ineg(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    return Interval(-a.hi, -a.lo)


def imul(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return _widened(min(products), max(products))


def idiv(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    if b.contains_zero():
        # A point denominator of exactly 0 is certainly an error; an interval
        # merely straddling 0 may shrink away at higher precision.
        return Interval.error()
    quotients = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return _widened(min(quotients), max(quotients))


def ifabs(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    if a.lo >= 0:
        return Interval(a.lo, a.hi)
    if a.hi <= 0:
        return Interval(-a.hi, -a.lo)
    return Interval(mpf(0), max(-a.lo, a.hi))


def ifmin(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def ifmax(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def icopysign(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    mag = ifabs(a)
    if b.lo > 0:
        return mag
    if b.hi < 0:
        return ineg(mag)
    return Interval(-mag.hi, mag.hi)


# --- monotone function lifting -------------------------------------------------------


def _monotone_inc(fn: Callable, a: Interval, lo_ok: Callable | None = None) -> Interval:
    """Lift a monotonically increasing function with optional domain check."""
    if a.err:
        return Interval.error()
    if lo_ok is not None and not lo_ok(a):
        return Interval.error()
    try:
        return _widened(fn(a.lo), fn(a.hi))
    except (ValueError, mpmath.libmp.ComplexResult, ZeroDivisionError, OverflowError):
        return Interval.error()


def iexp(a: Interval) -> Interval:
    return _monotone_inc(mpmath.exp, a)


def iexpm1(a: Interval) -> Interval:
    return _monotone_inc(mpmath.expm1, a)


def ilog(a: Interval) -> Interval:
    return _monotone_inc(mpmath.log, a, lambda iv: iv.lo > 0)


def ilog2(a: Interval) -> Interval:
    return _monotone_inc(lambda x: mpmath.log(x, 2), a, lambda iv: iv.lo > 0)


def ilog10(a: Interval) -> Interval:
    return _monotone_inc(mpmath.log10, a, lambda iv: iv.lo > 0)


def ilog1p(a: Interval) -> Interval:
    return _monotone_inc(mpmath.log1p, a, lambda iv: iv.lo > -1)


def isqrt(a: Interval) -> Interval:
    return _monotone_inc(mpmath.sqrt, a, lambda iv: iv.lo >= 0)


def _real_cbrt(x):
    """Real cube root (mpmath.cbrt returns the complex principal root)."""
    if x >= 0:
        return mpmath.cbrt(x)
    return -mpmath.cbrt(-x)


def icbrt(a: Interval) -> Interval:
    return _monotone_inc(_real_cbrt, a)


def iasin(a: Interval) -> Interval:
    return _monotone_inc(mpmath.asin, a, lambda iv: iv.lo >= -1 and iv.hi <= 1)


def iacos(a: Interval) -> Interval:
    if a.err or a.lo < -1 or a.hi > 1:
        return Interval.error()
    return _widened(mpmath.acos(a.hi), mpmath.acos(a.lo))


def iatan(a: Interval) -> Interval:
    return _monotone_inc(mpmath.atan, a)


def isinh(a: Interval) -> Interval:
    return _monotone_inc(mpmath.sinh, a)


def itanh(a: Interval) -> Interval:
    return _monotone_inc(mpmath.tanh, a)


def iasinh(a: Interval) -> Interval:
    return _monotone_inc(mpmath.asinh, a)


def iacosh(a: Interval) -> Interval:
    return _monotone_inc(mpmath.acosh, a, lambda iv: iv.lo >= 1)


def iatanh(a: Interval) -> Interval:
    return _monotone_inc(mpmath.atanh, a, lambda iv: iv.lo > -1 and iv.hi < 1)


def icosh(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    hi = max(mpmath.cosh(a.lo), mpmath.cosh(a.hi))
    lo = mpf(1) if a.contains_zero() else min(mpmath.cosh(a.lo), mpmath.cosh(a.hi))
    return _widened(lo, hi)


# --- periodic functions ----------------------------------------------------------------


def _pi() -> mpf:
    return mpmath.pi()


def isin(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    two_pi = 2 * _pi()
    if a.width() >= two_pi:
        return Interval(mpf(-1), mpf(1))
    half_pi = _pi() / 2
    # Maximum at pi/2 + 2k*pi within [lo, hi]?
    has_max = mpmath.floor((a.hi - half_pi) / two_pi) >= mpmath.ceil(
        (a.lo - half_pi) / two_pi
    )
    has_min = mpmath.floor((a.hi + half_pi) / two_pi) >= mpmath.ceil(
        (a.lo + half_pi) / two_pi
    )
    values = (mpmath.sin(a.lo), mpmath.sin(a.hi))
    hi = mpf(1) if has_max else _up(max(values))
    lo = mpf(-1) if has_min else _down(min(values))
    return Interval(max(lo, mpf(-1)), min(hi, mpf(1)))


def icos(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    half_pi = _pi() / 2
    shift = Interval(_down(half_pi), _up(half_pi))
    return isin(iadd(a, shift))


def itan(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    pi = _pi()
    # Does [lo, hi] contain an asymptote pi/2 + k*pi?
    if mpmath.floor((a.hi - pi / 2) / pi) >= mpmath.ceil((a.lo - pi / 2) / pi):
        return Interval.error()
    return _widened(mpmath.tan(a.lo), mpmath.tan(a.hi))


# --- power -----------------------------------------------------------------------------


def ipow(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    if b.is_point() and mpmath.isint(b.lo):
        return _ipow_int(a, int(b.lo))
    if a.lo > 0:
        return iexp(imul(b, ilog(a)))
    return Interval.error()


def _ipow_int(a: Interval, n: int) -> Interval:
    if n == 0:
        return Interval.point(1)
    if n < 0:
        inv = idiv(Interval.point(1), a)
        return _ipow_int(inv, -n) if not inv.err else Interval.error()
    lo_p, hi_p = a.lo**n, a.hi**n
    if n % 2 == 1:
        return _widened(lo_p, hi_p)
    if a.lo >= 0:
        return _widened(lo_p, hi_p)
    if a.hi <= 0:
        return _widened(hi_p, lo_p)
    return _widened(mpf(0), max(lo_p, hi_p))


def ihypot(a: Interval, b: Interval) -> Interval:
    return isqrt(iadd(imul(a, a), imul(b, b)))


def iatan2(y: Interval, x: Interval) -> Interval:
    if y.err or x.err:
        return Interval.error()
    if x.lo > 0 or (x.lo >= 0 and not y.contains_zero()) or y.lo > 0 or y.hi < 0:
        corners = [
            mpmath.atan2(yy, xx)
            for yy in (y.lo, y.hi)
            for xx in (x.lo, x.hi)
        ]
        return _widened(min(corners), max(corners))
    # Interval straddles the branch cut (negative x-axis) or the origin.
    return Interval.error()


# --- rounding functions --------------------------------------------------------------------


def _rounding(fn: Callable, a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    return Interval(fn(a.lo), fn(a.hi))


def ifloor(a: Interval) -> Interval:
    return _rounding(mpmath.floor, a)


def iceil(a: Interval) -> Interval:
    return _rounding(mpmath.ceil, a)


def itrunc(a: Interval) -> Interval:
    return _rounding(lambda x: mpmath.floor(x) if x >= 0 else mpmath.ceil(x), a)


def iround(a: Interval) -> Interval:
    return _rounding(mpmath.nint, a)


def ifmod(a: Interval, b: Interval) -> Interval:
    if a.err or b.err or b.contains_zero():
        return Interval.error()
    quotient = itrunc(idiv(a, b))
    if quotient.lo != quotient.hi:
        # Straddles a discontinuity; escalation may shrink it for points.
        return Interval.error()
    return isub(a, imul(b, quotient))


# --- dispatch table ----------------------------------------------------------------------

#: Interval implementation for each real operator.
INTERVAL_OPS: dict[str, Callable[..., Interval]] = {
    "+": iadd,
    "-": isub,
    "*": imul,
    "/": idiv,
    "neg": ineg,
    "fabs": ifabs,
    "fmin": ifmin,
    "fmax": ifmax,
    "copysign": icopysign,
    "sqrt": isqrt,
    "cbrt": icbrt,
    "pow": ipow,
    "hypot": ihypot,
    "exp": iexp,
    "exp2": lambda a: ipow(Interval.point(2), a),
    "expm1": iexpm1,
    "log": ilog,
    "log2": ilog2,
    "log10": ilog10,
    "log1p": ilog1p,
    "sin": isin,
    "cos": icos,
    "tan": itan,
    "asin": iasin,
    "acos": iacos,
    "atan": iatan,
    "atan2": iatan2,
    "sinh": isinh,
    "cosh": icosh,
    "tanh": itanh,
    "asinh": iasinh,
    "acosh": iacosh,
    "atanh": iatanh,
    "floor": ifloor,
    "ceil": iceil,
    "round": iround,
    "trunc": itrunc,
    "fmod": ifmod,
}


def round_to_format(value: mpf, ty) -> float:
    """Round an mpf correctly into float format ``ty`` (returned as Python float).

    Every registered format's values are representable exactly in a
    Python float, so the return type is float for all of them.  This is
    the compound rounding the numpy fast path mirrors: re-round the
    significand to the format's precision half-even at unbounded exponent
    (``mp.workprec``), then apply the format's storage cast for
    overflow/subnormal semantics.
    """
    if mpmath.isnan(value):
        return math.nan
    fmt = get_format(ty)
    with mp.workprec(fmt.precision):
        rounded = +value  # unary plus re-rounds to the context precision
    return fmt.storage_clamp(float(rounded))


def _interval_of_leaf(expr: Expr, point: dict[str, float]) -> Interval:
    if isinstance(expr, Var):
        try:
            return Interval.point(point[expr.name])
        except KeyError:
            raise KeyError(f"no value for variable {expr.name!r}") from None
    if isinstance(expr, Num):
        value = expr.value
        if value.denominator == 1:
            return Interval.point(value)
        num = Interval.point(Fraction(value.numerator))
        den = Interval.point(Fraction(value.denominator))
        return INTERVAL_OPS["/"](num, den)
    if isinstance(expr, Const):
        if expr.name == "PI":
            pi = mpmath.pi()
            return Interval(pi * (1 - mpf(2) ** (2 - mp.prec)), pi * (1 + mpf(2) ** (2 - mp.prec)))
        if expr.name == "E":
            e = mpmath.e()
            return Interval(e * (1 - mpf(2) ** (2 - mp.prec)), e * (1 + mpf(2) ** (2 - mp.prec)))
        if expr.name == "INFINITY":
            return Interval.point(mpf("inf"))
        if expr.name == "NAN":
            return Interval.error()
        raise DomainError(f"constant {expr.name} is not a real value")
    raise TypeError(f"not a leaf: {expr!r}")


class Ambiguous(Exception):
    """A boolean condition could not be decided at this precision."""


def _eval_interval(expr: Expr, point: dict[str, float]) -> Interval:
    """One interval-arithmetic pass at the current working precision."""
    if isinstance(expr, App):
        if expr.op == "if":
            cond = _eval_bool(expr.args[0], point)
            return _eval_interval(expr.args[1 if cond else 2], point)
        fn = INTERVAL_OPS.get(expr.op)
        if fn is None:
            raise KeyError(f"no interval semantics for operator {expr.op!r}")
        args = [_eval_interval(a, point) for a in expr.args]
        return fn(*args)
    return _interval_of_leaf(expr, point)


def _eval_bool(expr: Expr, point: dict[str, float]) -> bool:
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
        return _eval_bool(expr.args[0], point) and _eval_bool(expr.args[1], point)
    if op == "or":
        return _eval_bool(expr.args[0], point) or _eval_bool(expr.args[1], point)
    if op == "not":
        return not _eval_bool(expr.args[0], point)
    left = _eval_interval(expr.args[0], point)
    right = _eval_interval(expr.args[1], point)
    if left.err or right.err:
        raise DomainError(f"domain error inside condition {op}")
    if op == "<":
        if left.hi < right.lo:
            return True
        if left.lo >= right.hi:
            return False
    elif op == "<=":
        if left.hi <= right.lo:
            return True
        if left.lo > right.hi:
            return False
    elif op == ">":
        if left.lo > right.hi:
            return True
        if left.hi <= right.lo:
            return False
    elif op == ">=":
        if left.lo >= right.hi:
            return True
        if left.hi < right.lo:
            return False
    elif op == "==":
        if left.is_point() and right.is_point() and left.lo == right.lo:
            return True
        if left.hi < right.lo or right.hi < left.lo:
            return False
    elif op == "!=":
        if left.hi < right.lo or right.hi < left.lo:
            return True
        if left.is_point() and right.is_point() and left.lo == right.lo:
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
        #: session's mpmath-rung lock (mp.workprec is process-global
        #: state), and per-worker instances are single-threaded — their
        #: counts travel home as ``JobOutcome.oracle`` deltas and merge
        #: into ``SessionStats.rival`` under the session lock.
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
        for index, prec in enumerate(self.precisions):
            with mp.workprec(prec):
                try:
                    result = _eval_interval(expr, point)
                except Ambiguous:
                    last_issue = "ambiguous condition"
                    continue
                except DomainError:
                    raise
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
        for prec in self.precisions:
            with mp.workprec(prec):
                try:
                    return _eval_bool(expr, point)
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
