"""Real interval arithmetic on raw libmp values — our stand-in for the Rival library.

Herbie and Chassis score accuracy against "correctly rounded" results
computed by the Rival interval library (paper section 3.1).  This module
provides the same contract: guaranteed-enclosure interval arithmetic over
arbitrary-precision floats, with a *possible error* flag for domain
violations (log of a negative, division by zero, ...).

Endpoints are raw ``mpmath.libmp`` values (``(sign, man, exp, bc)``
tuples) and every operation takes its working precision ``prec`` as an
argument and rounds to nearest, so nothing reads mpmath's process-global
``mp`` context and the module is safe to use from any thread.

Soundness recipe: each operation computes endpoint values at ``prec``
bits (libmp's transcendental functions are accurate to ~1 ulp) and then
widens the result outward by a few ulps at that precision.  Variables
and integer literals enter exactly, at any width.  The adaptive
evaluator (:mod:`repro.rival.eval`) escalates precision until the
enclosure rounds unambiguously into the target format, so the widening
margin only costs iterations, never correctness.
"""

from __future__ import annotations

from typing import Callable

from mpmath.libmp import (
    ComplexResult, fhalf, fnan, fnone, fone, from_float, from_int, ftwo,
    fzero, mpf_acos, mpf_acosh, mpf_add, mpf_asin, mpf_asinh, mpf_atan,
    mpf_atan2, mpf_atanh, mpf_cbrt, mpf_ceil, mpf_cosh, mpf_div, mpf_e, mpf_eq,
    mpf_exp, mpf_floor, mpf_ge, mpf_gt, mpf_le, mpf_log, mpf_lt, mpf_mul,
    mpf_neg, mpf_nint, mpf_pi, mpf_pos, mpf_pow_int, mpf_sin, mpf_sinh,
    mpf_sqrt, mpf_sub, mpf_tan, mpf_tanh, to_int,
)

#: Every operation rounds to nearest at its working precision.
RND = "n"

_TEN = from_int(10)

_INF = float("inf")


class DomainError(ArithmeticError):
    """The expression is (certainly) undefined at the evaluated point."""


class Interval:
    """A closed real interval ``[lo, hi]`` with a possible-error flag.

    ``lo``/``hi`` are raw libmp values, stored as given (never rounded).
    ``err=True`` means the true result *may* be a domain error (the input
    enclosure straddles a singularity or domain edge); the adaptive
    evaluator treats it as "escalate precision, and give up if it persists".
    """

    __slots__ = ("lo", "hi", "err")

    def __init__(self, lo: tuple, hi: tuple, err: bool = False):
        self.lo = lo
        self.hi = hi
        self.err = err
        if not err and not mpf_le(lo, hi):
            if lo == fnan or hi == fnan:
                self.err = True
            else:
                raise ValueError(f"inverted interval [{lo}, {hi}]")

    # --- constructors -----------------------------------------------------------

    @staticmethod
    def point(value) -> "Interval":
        """An exact (width-zero) interval; see :func:`exact`."""
        v = exact(value)
        return _make(v, v)

    @staticmethod
    def error() -> "Interval":
        """A certainly-erroneous interval."""
        return _ERROR

    # --- inspection --------------------------------------------------------------

    def is_point(self) -> bool:
        return not self.err and mpf_eq(self.lo, self.hi)

    def contains(self, value) -> bool:
        v = exact(value)
        return not self.err and mpf_le(self.lo, v) and mpf_le(v, self.hi)

    def contains_zero(self) -> bool:
        return not self.err and mpf_le(self.lo, fzero) and mpf_ge(self.hi, fzero)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", err" if self.err else ""
        return f"Interval({self.lo}, {self.hi}{flag})"


def _make(lo: tuple, hi: tuple) -> Interval:
    """An interval from endpoints already known to be ordered (or NaN).

    Every operation below orders its endpoints by construction, so only
    a NaN endpoint needs the check ``Interval.__init__`` makes.
    """
    iv = object.__new__(Interval)
    iv.lo = lo
    iv.hi = hi
    iv.err = lo == fnan or hi == fnan
    return iv


_ERROR = Interval(fnan, fnan, err=True)
_ONE = _make(fone, fone)
_TWO = _make(ftwo, ftwo)


def exact(value) -> tuple:
    """A float or int as a raw libmp value, unrounded; raw values pass
    through unchanged."""
    if isinstance(value, float):
        return from_float(value)
    if isinstance(value, tuple):
        return value
    return from_int(value)


# --- Python's min/max on libmp values ------------------------------------------------
#
# ``min(a, b, ...)`` keeps the first value and replaces it with each later
# one that compares below it; with a NaN among the values the result
# depends on that order, so these folds keep it.


def _min(x: tuple, y: tuple) -> tuple:
    return y if mpf_lt(y, x) else x


def _max(x: tuple, y: tuple) -> tuple:
    return y if mpf_gt(y, x) else x


# --- outward widening ------------------------------------------------------------


def _margin(x: tuple, prec: int) -> tuple | None:
    """``|x| * 2**(3-prec) + 2**(-prec-1080)`` rounded at ``prec``; None
    for infinities and NaN, which are never widened."""
    sign, man, exp, bc = x
    if not man:
        return None if exp else (0, 1, -prec - 1080, 1)
    scaled = (0, man, exp + 3 - prec, bc)
    if exp + bc > prec - 1078:
        # The tiny term lies below 1/32 ulp of ``scaled`` (a value of at
        # most ``prec`` bits), so the sum rounds to ``scaled`` itself.
        return scaled
    return mpf_add(scaled, (0, 1, -prec - 1080, 1), prec, RND)


def _down(x: tuple, prec: int) -> tuple:
    """A value certainly <= the true value that ``x`` approximates."""
    margin = _margin(x, prec)
    return x if margin is None else mpf_sub(x, margin, prec, RND)


def _up(x: tuple, prec: int) -> tuple:
    """A value certainly >= the true value that ``x`` approximates."""
    margin = _margin(x, prec)
    return x if margin is None else mpf_add(x, margin, prec, RND)


def _widened(lo: tuple, hi: tuple, prec: int) -> Interval:
    if lo == hi:
        margin = _margin(lo, prec)
        if margin is None:
            return _make(lo, hi)
        return _make(mpf_sub(lo, margin, prec, RND), mpf_add(hi, margin, prec, RND))
    return _make(_down(lo, prec), _up(hi, prec))


def _corners(fn: Callable, a: Interval, b: Interval, prec: int) -> Interval:
    """Widen the hull of ``fn`` at the corners ``(a.lo, b.lo), (a.lo, b.hi),
    (a.hi, b.lo), (a.hi, b.hi)``, evaluating each distinct corner once."""
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    if blo == bhi:
        if alo == ahi:
            value = fn(alo, blo, prec, RND)
            return _widened(value, value, prec)
        c1 = fn(alo, blo, prec, RND)
        c2 = fn(ahi, blo, prec, RND)
        return _widened(_min(c1, c2), _max(c1, c2), prec)
    c1 = fn(alo, blo, prec, RND)
    c2 = fn(alo, bhi, prec, RND)
    if alo == ahi:
        return _widened(_min(c1, c2), _max(c1, c2), prec)
    c3 = fn(ahi, blo, prec, RND)
    c4 = fn(ahi, bhi, prec, RND)
    return _widened(
        _min(_min(_min(c1, c2), c3), c4), _max(_max(_max(c1, c2), c3), c4), prec
    )


# --- per-precision constants ------------------------------------------------------


class _Rung:
    """The constants the operations need at one working precision."""

    __slots__ = ("pi", "half_pi", "two_pi", "half_pi_interval", "ln2", "ln10", "PI", "E")

    def __init__(self, prec: int):
        self.pi = mpf_pi(prec, RND)
        self.half_pi = mpf_div(self.pi, ftwo, prec, RND)
        self.two_pi = mpf_mul(self.pi, ftwo, prec, RND)
        self.half_pi_interval = _make(_down(self.half_pi, prec), _up(self.half_pi, prec))
        self.ln2 = mpf_log(ftwo, prec + 20, RND)
        self.ln10 = mpf_log(_TEN, prec + 20, RND)
        # The real constants PI and E: c * (1 -+ 2**(2-prec)).
        rel = (0, 1, 2 - prec, 1)
        below = mpf_sub(fone, rel, prec, RND)
        above = mpf_add(rel, fone, prec, RND)
        e = mpf_e(prec, RND)
        self.PI = _make(mpf_mul(self.pi, below, prec, RND), mpf_mul(self.pi, above, prec, RND))
        self.E = _make(mpf_mul(e, below, prec, RND), mpf_mul(e, above, prec, RND))


_RUNGS: dict[int, _Rung] = {}


def _rung(prec: int) -> _Rung:
    """The rung constants at ``prec``, computed on first use."""
    rung = _RUNGS.get(prec)
    if rung is None:
        rung = _RUNGS[prec] = _Rung(prec)
    return rung


def constant(name: str, prec: int) -> Interval | None:
    """The enclosure of the real constant ``PI`` or ``E`` at ``prec``;
    None for any other name."""
    return getattr(_rung(prec), name) if name in ("PI", "E") else None


# --- exact endpoint arithmetic -----------------------------------------------------


def iadd(a: Interval, b: Interval, prec: int) -> Interval:
    if a.err or b.err:
        return _ERROR
    return _widened(mpf_add(a.lo, b.lo, prec, RND), mpf_add(a.hi, b.hi, prec, RND), prec)


def isub(a: Interval, b: Interval, prec: int) -> Interval:
    if a.err or b.err:
        return _ERROR
    return _widened(mpf_sub(a.lo, b.hi, prec, RND), mpf_sub(a.hi, b.lo, prec, RND), prec)


def ineg(a: Interval, prec: int) -> Interval:
    if a.err:
        return _ERROR
    return _make(mpf_neg(a.hi), mpf_neg(a.lo))


def imul(a: Interval, b: Interval, prec: int) -> Interval:
    if a.err or b.err:
        return _ERROR
    return _corners(mpf_mul, a, b, prec)


def idiv(a: Interval, b: Interval, prec: int) -> Interval:
    if a.err or b.err:
        return _ERROR
    if b.contains_zero():
        # A point denominator of exactly 0 is certainly an error; an interval
        # merely straddling 0 may shrink away at higher precision.
        return _ERROR
    return _corners(mpf_div, a, b, prec)


def ifabs(a: Interval, prec: int) -> Interval:
    if a.err:
        return _ERROR
    if mpf_ge(a.lo, fzero):
        return a
    if mpf_le(a.hi, fzero):
        return _make(mpf_neg(a.hi), mpf_neg(a.lo))
    return _make(fzero, _max(mpf_neg(a.lo), a.hi))


def ifmin(a: Interval, b: Interval, prec: int) -> Interval:
    if a.err or b.err:
        return _ERROR
    return _make(_min(a.lo, b.lo), _min(a.hi, b.hi))


def ifmax(a: Interval, b: Interval, prec: int) -> Interval:
    if a.err or b.err:
        return _ERROR
    return _make(_max(a.lo, b.lo), _max(a.hi, b.hi))


def icopysign(a: Interval, b: Interval, prec: int) -> Interval:
    if a.err or b.err:
        return _ERROR
    mag = ifabs(a, prec)
    if mpf_gt(b.lo, fzero):
        return mag
    if mpf_lt(b.hi, fzero):
        return ineg(mag, prec)
    return _make(mpf_neg(mag.hi), mag.hi)


# --- monotone function lifting -------------------------------------------------------


def _monotone_inc(fn: Callable, a: Interval, prec: int,
                  lo_ok: Callable | None = None) -> Interval:
    """Lift a monotonically increasing ``fn(x, prec, rnd)`` with optional
    domain check; a point argument is evaluated once."""
    if a.err:
        return _ERROR
    if lo_ok is not None and not lo_ok(a):
        return _ERROR
    try:
        lo = fn(a.lo, prec, RND)
        hi = lo if a.lo == a.hi else fn(a.hi, prec, RND)
    except (ValueError, ComplexResult, ZeroDivisionError, OverflowError):
        return _ERROR
    return _widened(lo, hi, prec)


def _mag(x: tuple):
    """mpmath's ``mag``: ``exp + bc``, or +-inf/NaN for special values."""
    sign, man, exp, bc = x
    if man:
        return exp + bc
    if x == fzero:
        return -_INF
    if x == fnan:
        return _INF - _INF
    return _INF


def _expm1(x: tuple, prec: int, rnd: str) -> tuple:
    """mpmath 1.3.0's ``expm1`` at ``prec``, transliterated.

    mpmath runs it 10 bits above the caller's precision, sums
    ``exp(x) + (-1)`` with ``sum_accurately`` (raising the precision until
    the cancellation is covered) and rounds the result back.
    """
    if x == fzero:
        return fzero
    wp = prec + 10
    if _mag(x) < -wp:
        square = mpf_mul(mpf_pow_int(x, 2, wp, rnd), fhalf, wp, rnd)
        return mpf_pos(mpf_add(x, square, wp, rnd), prec, rnd)
    extraprec = 10
    while True:
        cp = wp + extraprec + 5
        max_mag = -_INF
        term = mpf_exp(x, cp, rnd)
        s = mpf_add(fzero, term, cp, rnd)
        done = False
        if term != fzero:
            term_mag = _mag(term)
            max_mag = max(max_mag, term_mag)
            sum_mag = _mag(s)
            done = sum_mag - term_mag > cp
        if not done:
            s = mpf_add(s, fnone, cp, rnd)
            max_mag = max(max_mag, 1)
            sum_mag = _mag(s)
        cancellation = max_mag - sum_mag
        if cancellation != cancellation or cancellation < extraprec:
            break
        extraprec += min(cp, cancellation)
    return mpf_pos(s, prec, rnd)


def _log1p(x: tuple, prec: int, rnd: str) -> tuple:
    """mpmath 1.3.0's ``log1p`` at ``prec``, transliterated: 10 guard bits,
    ``1 + x`` at twice that precision, then ``log``."""
    if x == fzero:
        return fzero
    wp = prec + 10
    if _mag(x) < -wp:
        square = mpf_mul(mpf_pow_int(x, 2, wp, rnd), fhalf, wp, rnd)
        return mpf_pos(mpf_sub(x, square, wp, rnd), prec, rnd)
    return mpf_pos(mpf_log(mpf_add(fone, x, 2 * wp, rnd), wp, rnd), prec, rnd)


def _log2(x: tuple, prec: int, rnd: str) -> tuple:
    """mpmath's ``log(x, 2)``: both logs 20 bits up, divided at ``prec``."""
    return mpf_div(mpf_log(x, prec + 20, rnd), _rung(prec).ln2, prec, rnd)


def _log10(x: tuple, prec: int, rnd: str) -> tuple:
    """mpmath's ``log10(x)``, that is ``log(x, 10)``."""
    return mpf_div(mpf_log(x, prec + 20, rnd), _rung(prec).ln10, prec, rnd)


def iexp(a: Interval, prec: int) -> Interval:
    return _monotone_inc(mpf_exp, a, prec)


def iexpm1(a: Interval, prec: int) -> Interval:
    return _monotone_inc(_expm1, a, prec)


def _positive(iv: Interval) -> bool:
    return mpf_gt(iv.lo, fzero)


def ilog(a: Interval, prec: int) -> Interval:
    return _monotone_inc(mpf_log, a, prec, _positive)


def ilog2(a: Interval, prec: int) -> Interval:
    return _monotone_inc(_log2, a, prec, _positive)


def ilog10(a: Interval, prec: int) -> Interval:
    return _monotone_inc(_log10, a, prec, _positive)


def ilog1p(a: Interval, prec: int) -> Interval:
    return _monotone_inc(_log1p, a, prec, lambda iv: mpf_gt(iv.lo, fnone))


def isqrt(a: Interval, prec: int) -> Interval:
    return _monotone_inc(mpf_sqrt, a, prec, lambda iv: mpf_ge(iv.lo, fzero))


def _real_cbrt(x: tuple, prec: int, rnd: str) -> tuple:
    """Real cube root (odd around 0)."""
    if mpf_ge(x, fzero):
        return mpf_cbrt(x, prec, rnd)
    return mpf_neg(mpf_cbrt(mpf_neg(x), prec, rnd))


def icbrt(a: Interval, prec: int) -> Interval:
    return _monotone_inc(_real_cbrt, a, prec)


def _in_unit(iv: Interval) -> bool:
    return mpf_ge(iv.lo, fnone) and mpf_le(iv.hi, fone)


def iasin(a: Interval, prec: int) -> Interval:
    return _monotone_inc(mpf_asin, a, prec, _in_unit)


def iacos(a: Interval, prec: int) -> Interval:
    if a.err or not _in_unit(a):
        return _ERROR
    hi = mpf_acos(a.lo, prec, RND)
    lo = hi if a.lo == a.hi else mpf_acos(a.hi, prec, RND)
    return _widened(lo, hi, prec)


def iatan(a: Interval, prec: int) -> Interval:
    return _monotone_inc(mpf_atan, a, prec)


def isinh(a: Interval, prec: int) -> Interval:
    return _monotone_inc(mpf_sinh, a, prec)


def itanh(a: Interval, prec: int) -> Interval:
    return _monotone_inc(mpf_tanh, a, prec)


def iasinh(a: Interval, prec: int) -> Interval:
    return _monotone_inc(mpf_asinh, a, prec)


def iacosh(a: Interval, prec: int) -> Interval:
    return _monotone_inc(mpf_acosh, a, prec, lambda iv: mpf_ge(iv.lo, fone))


def iatanh(a: Interval, prec: int) -> Interval:
    return _monotone_inc(
        mpf_atanh, a, prec, lambda iv: mpf_gt(iv.lo, fnone) and mpf_lt(iv.hi, fone)
    )


def icosh(a: Interval, prec: int) -> Interval:
    if a.err:
        return _ERROR
    c_lo = mpf_cosh(a.lo, prec, RND)
    c_hi = c_lo if a.lo == a.hi else mpf_cosh(a.hi, prec, RND)
    hi = _max(c_lo, c_hi)
    lo = fone if a.contains_zero() else _min(c_lo, c_hi)
    return _widened(lo, hi, prec)


# --- periodic functions ----------------------------------------------------------------


def _has_point(lo: tuple, hi: tuple, offset: tuple, period: tuple, prec: int) -> bool:
    """Does ``[lo, hi]`` contain ``offset + k * period`` for an integer k
    (decided at ``prec``, as ``floor((hi-offset)/period) >=
    ceil((lo-offset)/period)``)?"""
    top = mpf_div(mpf_sub(hi, offset, prec, RND), period, prec, RND)
    bottom = top if lo == hi else mpf_div(mpf_sub(lo, offset, prec, RND), period, prec, RND)
    return mpf_ge(mpf_floor(top, prec, RND), mpf_ceil(bottom, prec, RND))


def isin(a: Interval, prec: int) -> Interval:
    if a.err:
        return _ERROR
    c = _rung(prec)
    if mpf_ge(mpf_sub(a.hi, a.lo, prec, RND), c.two_pi):
        return _make(fnone, fone)
    # Maximum at pi/2 + 2k*pi within [lo, hi]?  Minimum at -pi/2 + 2k*pi?
    has_max = _has_point(a.lo, a.hi, c.half_pi, c.two_pi, prec)
    has_min = _has_point(a.lo, a.hi, mpf_neg(c.half_pi), c.two_pi, prec)
    s_lo = mpf_sin(a.lo, prec, RND)
    s_hi = s_lo if a.lo == a.hi else mpf_sin(a.hi, prec, RND)
    hi = fone if has_max else _up(_max(s_lo, s_hi), prec)
    lo = fnone if has_min else _down(_min(s_lo, s_hi), prec)
    return _make(_max(lo, fnone), _min(hi, fone))


def icos(a: Interval, prec: int) -> Interval:
    if a.err:
        return _ERROR
    return isin(iadd(a, _rung(prec).half_pi_interval, prec), prec)


def itan(a: Interval, prec: int) -> Interval:
    if a.err:
        return _ERROR
    c = _rung(prec)
    # Does [lo, hi] contain an asymptote pi/2 + k*pi?
    if _has_point(a.lo, a.hi, c.half_pi, c.pi, prec):
        return _ERROR
    lo = mpf_tan(a.lo, prec, RND)
    hi = lo if a.lo == a.hi else mpf_tan(a.hi, prec, RND)
    return _widened(lo, hi, prec)


# --- power -----------------------------------------------------------------------------


def _is_integer(x: tuple) -> bool:
    sign, man, exp, bc = x
    return bool((man and exp >= 0) or x == fzero)


def ipow(a: Interval, b: Interval, prec: int) -> Interval:
    if a.err or b.err:
        return _ERROR
    if b.is_point() and _is_integer(b.lo):
        return _ipow_int(a, int(to_int(b.lo)), prec)
    if mpf_gt(a.lo, fzero):
        return iexp(imul(b, ilog(a, prec), prec), prec)
    return _ERROR



def _ipow_int(a: Interval, n: int, prec: int) -> Interval:
    if n == 0:
        return _ONE
    if n < 0:
        inv = idiv(_ONE, a, prec)
        return _ipow_int(inv, -n, prec) if not inv.err else _ERROR
    lo_p = mpf_pow_int(a.lo, n, prec, RND)
    hi_p = lo_p if a.lo == a.hi else mpf_pow_int(a.hi, n, prec, RND)
    if n % 2 == 1 or mpf_ge(a.lo, fzero):
        return _widened(lo_p, hi_p, prec)
    if mpf_le(a.hi, fzero):
        return _widened(hi_p, lo_p, prec)
    return _widened(fzero, _max(lo_p, hi_p), prec)


def ihypot(a: Interval, b: Interval, prec: int) -> Interval:
    return isqrt(iadd(imul(a, a, prec), imul(b, b, prec), prec), prec)


def iatan2(y: Interval, x: Interval, prec: int) -> Interval:
    if y.err or x.err:
        return _ERROR
    if (mpf_gt(x.lo, fzero) or (mpf_ge(x.lo, fzero) and not y.contains_zero())
            or mpf_gt(y.lo, fzero) or mpf_lt(y.hi, fzero)):
        return _corners(mpf_atan2, y, x, prec)
    # Interval straddles the branch cut (negative x-axis) or the origin.
    return _ERROR


# --- rounding functions --------------------------------------------------------------------
#
# These are exact: the integer nearest a value never needs more bits
# than the value itself.


def _trunc(x: tuple) -> tuple:
    return mpf_floor(x) if mpf_ge(x, fzero) else mpf_ceil(x)


def _rounding(fn: Callable, a: Interval) -> Interval:
    if a.err:
        return _ERROR
    return _make(fn(a.lo), fn(a.hi))


def ifloor(a: Interval, prec: int) -> Interval:
    return _rounding(mpf_floor, a)


def iceil(a: Interval, prec: int) -> Interval:
    return _rounding(mpf_ceil, a)


def itrunc(a: Interval, prec: int) -> Interval:
    return _rounding(_trunc, a)


def iround(a: Interval, prec: int) -> Interval:
    return _rounding(mpf_nint, a)


def ifmod(a: Interval, b: Interval, prec: int) -> Interval:
    if a.err or b.err or b.contains_zero():
        return _ERROR
    quotient = itrunc(idiv(a, b, prec), prec)
    if not mpf_eq(quotient.lo, quotient.hi):
        # Straddles a discontinuity; escalation may shrink it for points.
        return _ERROR
    return isub(a, imul(b, quotient, prec), prec)


def iexp2(a: Interval, prec: int) -> Interval:
    return ipow(_TWO, a, prec)


# --- dispatch table ----------------------------------------------------------------------

#: Interval implementation for each real operator; each takes its
#: argument intervals and then the working precision.
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
    "exp2": iexp2,
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
