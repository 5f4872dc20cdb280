"""Vectorized numpy interval fast path for batched oracle evaluation.

This backend mirrors the mpmath interval semantics of
:mod:`repro.rival.interval` over whole point sets at once: each operator
is evaluated on numpy endpoint arrays (``np.longdouble`` for binary64
targets, ``np.float64`` for binary32 targets) and widened *outward* by a
margin strictly larger than the arithmetic error, so every lane's
enclosure is guaranteed to contain the true real value.  A point is
**accepted** only when its enclosure, rounded into the target format
with the same compound rounding the mpmath ladder uses, collapses to a
single nonzero value — then that value *is* the correctly rounded result
and bit-identical to what the ladder would return.  Everything else (any
possible domain error, non-unique rounding, results that round to zero,
operators without a vector mirror) escalates to the unchanged mpmath
escalation ladder, so the fast path is an acceptance filter, never an
approximation.

Soundness notes baked into the margins:

* Margins are strictly wider than the mpmath ladder's first-rung margins
  (relative ``2**-77``, absolute ``2**-1160``), so every numpy enclosure
  contains the corresponding precision-80 enclosure.  That nesting is
  what makes *certain* boolean verdicts and *certain* domain errors
  (``cert`` lanes) safe to report without consulting the ladder: the
  ladder, run on the same point, must reach the same verdict.
* Results that round to zero are always escalated: the ladder can
  legitimately return ``-0.0`` (its enclosure endpoints compare equal
  across the sign of zero), and matching that sign bit-for-bit is only
  guaranteed by running the ladder itself.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
from mpmath import mp, mpf

from ...deadline import check_deadline
from ...formats import UnknownFormatError, get_format
from ...ir.expr import App, Const, Expr, Num, Var
from ...ir.types import F32, F64
from .base import (
    DOMAIN_ERROR,
    INVALID,
    OK,
    OracleBackend,
    OracleCounters,
    PointResult,
)
from .dd import DoubleDoubleRung
from .mpmath_backend import MpmathBackend
from .rungs import ProgramCache, Rung, Unsupported, run_cascade


class _Unsupported(Unsupported):
    """The expression has no faithful vector mirror; use the ladder."""


#: 2 ulps of outward widening for compile-time constants parsed from
#: high-precision decimal strings (the strings are correct to < 1 ulp).
_CONST_ULPS = 2

_PI_STR = "3.14159265358979323846264338327950288419716939937510582097"
_E_STR = "2.71828182845904523536028747135266249775724709369995957497"


class _Format:
    """Per-target-format compute dtype, margins, and rounding parameters."""

    def __init__(self, dtype, target_bits: int, storage_cast=None):
        self.dtype = dtype
        self.target_bits = target_bits
        #: Vectorized storage cast of the target FloatFormat (None for the
        #: legacy f32/f64 paths, which pick their cast by target_bits).
        self.storage_cast = storage_cast
        eps = np.finfo(dtype).eps
        # Endpoint arithmetic (and sqrt) is correctly rounded (1/2 ulp
        # per step, at most a couple of steps before widening); libm
        # transcendentals are a few ulps; powl historically the worst.
        # All leave 4-8x headroom over those error bounds while staying
        # far above the ladder's first-rung relative margin of 2**-77,
        # which the enclosure-nesting argument requires.
        self.rel_arith = eps * dtype(4)
        self.rel_trans = eps * dtype(16)
        self.rel_pow = eps * dtype(64)
        # Absolute term: must exceed the ladder's 2**-1160 so enclosures
        # nest.  float64 cannot represent that, so its smallest subnormal
        # (2**-1074) serves; longdouble uses 2**-1159 directly.
        if np.finfo(dtype).machep < -60:
            self.tiny = dtype(2) ** dtype(-1159)
        else:
            self.tiny = dtype(2.0 ** -1074)
        self.pi = dtype(_PI_STR)
        self.half_pi = self.pi / dtype(2)
        self.two_pi = self.pi * dtype(2)
        # Slack for the periodic extremum/asymptote tests: generous
        # absolute cushion plus a relative term that dominates the
        # quotient's rounding error at any magnitude.  Slack errs toward
        # "extremum present", which only widens the enclosure.
        self.slack_base = dtype(1e-6)
        self.slack_rel = dtype(1e-12)


_FORMATS: dict[str, _Format | None] = {}
_FORMATS_LOCK = threading.Lock()


def _format_for(ty: str) -> _Format | None:
    with _FORMATS_LOCK:
        if ty not in _FORMATS:
            if ty == F64:
                # binary64 targets need >53 mantissa bits of headroom; on
                # platforms where long double is an alias of double the
                # fast path stands down and everything takes the ladder.
                ld = np.finfo(np.longdouble)
                _FORMATS[ty] = _Format(np.longdouble, 53) if ld.nmant > 52 else None
            elif ty == F32:
                _FORMATS[ty] = _Format(np.float64, 24)
            else:
                # Any other registered format narrower than binary64 gets
                # the float64 compute path (>= 29 bits of headroom over
                # the widest sub-f32 significand) with the format's own
                # vectorized storage cast; formats with no vectorized
                # cast — and unknown names — stand down to the ladder.
                try:
                    target = get_format(ty)
                except UnknownFormatError:
                    target = None
                if (
                    target is not None
                    and target.precision <= 24
                    and target.numpy_storage_cast(np.zeros(1)) is not None
                ):
                    _FORMATS[ty] = _Format(
                        np.float64,
                        target.precision,
                        storage_cast=target.numpy_storage_cast,
                    )
                else:
                    _FORMATS[ty] = None
        return _FORMATS[ty]


class _IV:
    """One program slot: endpoint arrays plus error/certainty masks."""

    __slots__ = ("lo", "hi", "err", "cert")

    def __init__(self, lo, hi, err, cert):
        self.lo = lo
        self.hi = hi
        self.err = err
        self.cert = cert


def _flags(*ivs):
    err = ivs[0].err
    cert = ivs[0].cert
    for iv in ivs[1:]:
        err = err | iv.err
        cert = cert | iv.cert
    return err, cert


def _widen(fmt: _Format, lo, hi, rel):
    """Outward widening mirroring ``interval._down``/``_up``.

    Infinite (and nan) endpoints pass through unchanged, exactly like
    the mpmath margins.
    """
    mlo = np.abs(lo) * rel + fmt.tiny
    mhi = np.abs(hi) * rel + fmt.tiny
    wlo = np.where(np.isfinite(lo), lo - mlo, lo)
    whi = np.where(np.isfinite(hi), hi + mhi, hi)
    return wlo, whi


def _seal(fmt: _Format, lo, hi, err, cert) -> _IV:
    """Flag non-finite endpoints and inversions as possible errors.

    Unlike mpf, the dtype has a bounded exponent: an operation that
    overflows rounds an endpoint to ±inf, which may *exceed* the true
    value and break containment (e.g. a huge quotient truncating to
    [inf, inf] while the ladder computes it exactly).  Any op-produced
    non-finite endpoint therefore escalates; only leaf infinities
    (an INFINITY literal or an infinite input) stay accepted, and those
    never pass through _seal.
    """
    bad = ~np.isfinite(lo) | ~np.isfinite(hi)
    inverted = ~bad & (lo > hi)
    return _IV(lo, hi, err | bad | inverted, cert)


def _widen_ulps(value, dtype, ulps: int = _CONST_ULPS):
    lo = hi = dtype(value)
    down = dtype(-np.inf)
    up = dtype(np.inf)
    for _ in range(ulps):
        lo = np.nextafter(lo, down)
        hi = np.nextafter(hi, up)
    return lo, hi


def _num_endpoints(frac: Fraction, fmt: _Format):
    """Compile-time enclosure of an exact rational literal."""
    try:
        approx64 = float(frac)  # correctly rounded by Fraction.__float__
    except OverflowError:
        raise _Unsupported("literal exceeds float range") from None
    if Fraction(approx64) == frac:
        v = fmt.dtype(approx64)
        return v, v
    if np.finfo(fmt.dtype).machep < -60:
        with mp.workprec(200):
            text = mpmath.nstr(
                mpf(frac.numerator) / mpf(frac.denominator), 40
            )
        approx = fmt.dtype(text)
    else:
        approx = fmt.dtype(approx64)
    return _widen_ulps(approx, fmt.dtype)


# --- vector interval operators (mirrors of repro.rival.interval) -------------


def _iadd(fmt, a, b):
    err, cert = _flags(a, b)
    lo, hi = _widen(fmt, a.lo + b.lo, a.hi + b.hi, fmt.rel_arith)
    return _seal(fmt, lo, hi, err, cert)


def _isub(fmt, a, b):
    err, cert = _flags(a, b)
    lo, hi = _widen(fmt, a.lo - b.hi, a.hi - b.lo, fmt.rel_arith)
    return _seal(fmt, lo, hi, err, cert)


def _ineg(fmt, a):
    return _seal(fmt, -a.hi, -a.lo, a.err, a.cert)


def _imul(fmt, a, b):
    err, cert = _flags(a, b)
    p1 = a.lo * b.lo
    p2 = a.lo * b.hi
    p3 = a.hi * b.lo
    p4 = a.hi * b.hi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    lo, hi = _widen(fmt, lo, hi, fmt.rel_arith)
    return _seal(fmt, lo, hi, err, cert)


def _idiv(fmt, a, b):
    err, cert = _flags(a, b)
    straddle = (b.lo <= 0) & (b.hi >= 0)
    # A point denominator of exactly 0 is an error at every precision
    # (exact-chain pointness transfers to the ladder); a straddle may
    # shrink away, so it only escalates.
    point_zero = (b.lo == 0) & (b.hi == 0) & ~b.err
    q1 = a.lo / b.lo
    q2 = a.lo / b.hi
    q3 = a.hi / b.lo
    q4 = a.hi / b.hi
    lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
    hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
    lo, hi = _widen(fmt, lo, hi, fmt.rel_arith)
    return _seal(fmt, lo, hi, err | straddle, cert | point_zero)


def _ifabs(fmt, a):
    pos = a.lo >= 0
    neg = a.hi <= 0
    zero = np.zeros_like(a.lo)
    lo = np.where(pos, a.lo, np.where(neg, -a.hi, zero))
    hi = np.where(pos, a.hi, np.where(neg, -a.lo, np.maximum(-a.lo, a.hi)))
    return _seal(fmt, lo, hi, a.err, a.cert)


def _ifmin(fmt, a, b):
    err, cert = _flags(a, b)
    return _seal(fmt, np.minimum(a.lo, b.lo), np.minimum(a.hi, b.hi), err, cert)


def _ifmax(fmt, a, b):
    err, cert = _flags(a, b)
    return _seal(fmt, np.maximum(a.lo, b.lo), np.maximum(a.hi, b.hi), err, cert)


def _icopysign(fmt, a, b):
    mag = _ifabs(fmt, a)
    pos = b.lo > 0
    neg = b.hi < 0
    lo = np.where(pos, mag.lo, -mag.hi)
    hi = np.where(pos, mag.hi, np.where(neg, -mag.lo, mag.hi))
    return _seal(fmt, lo, hi, mag.err | b.err, a.cert | b.cert)


def _mono(fmt, fn, a, rel, dom=None):
    """Lift a monotonically increasing numpy ufunc with domain checks.

    ``dom(a) -> (bad, certainly_bad)``: ``bad`` mirrors the ladder's
    possible-error condition; ``certainly_bad`` holds only where the
    enclosure is certainly outside the domain at any precision.
    """
    err = a.err
    cert = a.cert
    if dom is not None:
        bad, certainly = dom(a)
        err = err | bad
        cert = cert | certainly
    lo, hi = _widen(fmt, fn(a.lo), fn(a.hi), rel)
    return _seal(fmt, lo, hi, err, cert)


def _dom_sqrt(a):
    return ~(a.lo >= 0), a.hi < 0


def _dom_log(a):
    return ~(a.lo > 0), a.hi <= 0


def _dom_log1p(a):
    return ~(a.lo > -1), a.hi <= -1


def _dom_acosh(a):
    return ~(a.lo >= 1), a.hi < 1


def _dom_asin(a):
    return ~((a.lo >= -1) & (a.hi <= 1)), (a.lo > 1) | (a.hi < -1)


def _dom_atanh(a):
    return ~((a.lo > -1) & (a.hi < 1)), (a.lo >= 1) | (a.hi <= -1)


def _iacos(fmt, a):
    bad, certainly = _dom_asin(a)
    lo, hi = _widen(fmt, np.arccos(a.hi), np.arccos(a.lo), fmt.rel_trans)
    return _seal(fmt, lo, hi, a.err | bad, a.cert | certainly)


def _icosh(fmt, a):
    cl = np.cosh(a.lo)
    ch = np.cosh(a.hi)
    contains0 = (a.lo <= 0) & (a.hi >= 0)
    hi = np.maximum(cl, ch)
    lo = np.where(contains0, np.ones_like(cl), np.minimum(cl, ch))
    lo, hi = _widen(fmt, lo, hi, fmt.rel_trans)
    return _seal(fmt, lo, hi, a.err, a.cert)


def _periodic_hits(fmt, lo_q, hi_q):
    """Does [lo, hi] contain a point with quotient ≡ 0 (mod 1)?

    ``lo_q``/``hi_q`` are the endpoint quotients (e.g. ``(x - pi/2) /
    two_pi``); slack errs toward True, which only widens enclosures (sin
    extrema) or forces escalation (tan asymptotes) — never unsoundness.
    """
    slack = fmt.slack_base + (np.abs(lo_q) + np.abs(hi_q)) * fmt.slack_rel
    return np.floor(hi_q + slack) >= np.ceil(lo_q - slack)


def _sin_arrays(fmt, lo_a, hi_a):
    full = (hi_a - lo_a) >= fmt.two_pi
    has_max = _periodic_hits(
        fmt, (lo_a - fmt.half_pi) / fmt.two_pi, (hi_a - fmt.half_pi) / fmt.two_pi
    )
    has_min = _periodic_hits(
        fmt, (lo_a + fmt.half_pi) / fmt.two_pi, (hi_a + fmt.half_pi) / fmt.two_pi
    )
    slo = np.sin(lo_a)
    shi = np.sin(hi_a)
    wlo, whi = _widen(
        fmt, np.minimum(slo, shi), np.maximum(slo, shi), fmt.rel_trans
    )
    one = fmt.dtype(1)
    hi = np.where(full | has_max, one, whi)
    lo = np.where(full | has_min, -one, wlo)
    return np.maximum(lo, -one), np.minimum(hi, one)


def _isin(fmt, a):
    lo, hi = _sin_arrays(fmt, a.lo, a.hi)
    return _seal(fmt, lo, hi, a.err, a.cert)


def _icos(fmt, a):
    # Mirror of icos: sin(a + widened(pi/2)), the shift interval carrying
    # the pi/2 approximation error and the add widening outward.
    m = fmt.half_pi * fmt.rel_trans + fmt.tiny
    slo, shi = _widen(
        fmt, a.lo + (fmt.half_pi - m), a.hi + (fmt.half_pi + m), fmt.rel_arith
    )
    lo, hi = _sin_arrays(fmt, slo, shi)
    return _seal(fmt, lo, hi, a.err, a.cert)


def _itan(fmt, a):
    asymptote = _periodic_hits(
        fmt, (a.lo - fmt.half_pi) / fmt.pi, (a.hi - fmt.half_pi) / fmt.pi
    )
    lo, hi = _widen(fmt, np.tan(a.lo), np.tan(a.hi), fmt.rel_trans)
    # A missed asymptote inside a width-<pi interval always inverts the
    # endpoints (tan(hi-pi) < tan(lo) on one branch), which _seal flags.
    return _seal(fmt, lo, hi, a.err | asymptote, a.cert)


def _ipow(fmt, a, b):
    err, cert = _flags(a, b)
    b_int = (
        ~b.err
        & (b.lo == b.hi)
        & np.isfinite(b.lo)
        & (np.floor(b.lo) == b.lo)
    )
    # --- integer branch: vector _ipow_int ---------------------------------
    m = np.abs(b.lo)
    neg_n = b.lo < 0
    zero_n = b.lo == 0
    # Reciprocal (idiv(point(1), a)) feeds negative exponents.
    r_straddle = (a.lo <= 0) & (a.hi >= 0)
    r_point_zero = (a.lo == 0) & (a.hi == 0) & ~a.err
    iq1 = 1 / a.lo
    iq2 = 1 / a.hi
    ilo, ihi = _widen(
        fmt, np.minimum(iq1, iq2), np.maximum(iq1, iq2), fmt.rel_arith
    )
    base_lo = np.where(neg_n, ilo, a.lo)
    base_hi = np.where(neg_n, ihi, a.hi)
    p_lo = np.power(base_lo, m)
    p_hi = np.power(base_hi, m)
    odd = (m % fmt.dtype(2)) == 1
    pos = base_lo >= 0
    neg = base_hi <= 0
    even_lo = np.where(pos, p_lo, np.where(neg, p_hi, np.zeros_like(p_lo)))
    even_hi = np.where(pos, p_hi, np.where(neg, p_lo, np.maximum(p_lo, p_hi)))
    i_lo, i_hi = _widen(
        fmt,
        np.where(odd, p_lo, even_lo),
        np.where(odd, p_hi, even_hi),
        fmt.rel_pow,
    )
    # n == 0 is the exact point 1 (no widening), before the reciprocal.
    one = np.ones_like(p_lo)
    i_lo = np.where(zero_n, one, i_lo)
    i_hi = np.where(zero_n, one, i_hi)
    int_err = neg_n & r_straddle & ~zero_n
    int_cert = neg_n & r_point_zero & ~zero_n
    # --- general branch: exp(b * log(a)), defined for a.lo > 0 ------------
    gen_ok = a.lo > 0
    la_lo, la_hi = _widen(fmt, np.log(a.lo), np.log(a.hi), fmt.rel_trans)
    p1 = b.lo * la_lo
    p2 = b.lo * la_hi
    p3 = b.hi * la_lo
    p4 = b.hi * la_hi
    m_lo, m_hi = _widen(
        fmt,
        np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
        np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)),
        fmt.rel_arith,
    )
    g_lo, g_hi = _widen(fmt, np.exp(m_lo), np.exp(m_hi), fmt.rel_trans)
    # --- select ------------------------------------------------------------
    lo = np.where(b_int, i_lo, g_lo)
    hi = np.where(b_int, i_hi, g_hi)
    err = err | np.where(b_int, int_err, ~gen_ok)
    cert = cert | (b_int & int_cert)
    return _seal(fmt, lo, hi, err, cert)


def _iexp2(fmt, a):
    two = np.full_like(a.lo, 2)
    false = np.zeros_like(a.err)
    return _ipow(fmt, _IV(two, two, false, false), a)


def _ihypot(fmt, a, b):
    return _mono(
        fmt,
        np.sqrt,
        _iadd(fmt, _imul(fmt, a, a), _imul(fmt, b, b)),
        fmt.rel_arith,
        _dom_sqrt,
    )


def _iatan2(fmt, y, x):
    err, cert = _flags(y, x)
    y_zero = (y.lo <= 0) & (y.hi >= 0)
    ok = (x.lo > 0) | ((x.lo >= 0) & ~y_zero) | (y.lo > 0) | (y.hi < 0)
    c1 = np.arctan2(y.lo, x.lo)
    c2 = np.arctan2(y.lo, x.hi)
    c3 = np.arctan2(y.hi, x.lo)
    c4 = np.arctan2(y.hi, x.hi)
    lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
    hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
    lo, hi = _widen(fmt, lo, hi, fmt.rel_trans)
    return _seal(fmt, lo, hi, err | ~ok, cert)


def _rounding(fmt, fn, a):
    return _seal(fmt, fn(a.lo), fn(a.hi), a.err, a.cert)


def _ifmod(fmt, a, b):
    quotient = _rounding(fmt, np.trunc, _idiv(fmt, a, b))
    split = quotient.lo != quotient.hi
    result = _isub(fmt, a, _imul(fmt, b, quotient))
    return _IV(result.lo, result.hi, result.err | split, result.cert)


_OPS = {
    "+": _iadd,
    "-": _isub,
    "*": _imul,
    "/": _idiv,
    "neg": _ineg,
    "fabs": _ifabs,
    "fmin": _ifmin,
    "fmax": _ifmax,
    "copysign": _icopysign,
    # np.sqrt is IEEE correctly rounded, so it earns the arithmetic margin.
    "sqrt": lambda fmt, a: _mono(fmt, np.sqrt, a, fmt.rel_arith, _dom_sqrt),
    "cbrt": lambda fmt, a: _mono(fmt, np.cbrt, a, fmt.rel_trans),
    "pow": _ipow,
    "hypot": _ihypot,
    "exp": lambda fmt, a: _mono(fmt, np.exp, a, fmt.rel_trans),
    "exp2": _iexp2,
    "expm1": lambda fmt, a: _mono(fmt, np.expm1, a, fmt.rel_trans),
    "log": lambda fmt, a: _mono(fmt, np.log, a, fmt.rel_trans, _dom_log),
    "log2": lambda fmt, a: _mono(fmt, np.log2, a, fmt.rel_trans, _dom_log),
    "log10": lambda fmt, a: _mono(fmt, np.log10, a, fmt.rel_trans, _dom_log),
    "log1p": lambda fmt, a: _mono(fmt, np.log1p, a, fmt.rel_trans, _dom_log1p),
    "sin": _isin,
    "cos": _icos,
    "tan": _itan,
    "asin": lambda fmt, a: _mono(fmt, np.arcsin, a, fmt.rel_trans, _dom_asin),
    "acos": _iacos,
    "atan": lambda fmt, a: _mono(fmt, np.arctan, a, fmt.rel_trans),
    "atan2": _iatan2,
    "sinh": lambda fmt, a: _mono(fmt, np.sinh, a, fmt.rel_trans),
    "cosh": _icosh,
    "tanh": lambda fmt, a: _mono(fmt, np.tanh, a, fmt.rel_trans),
    "asinh": lambda fmt, a: _mono(fmt, np.arcsinh, a, fmt.rel_trans),
    "acosh": lambda fmt, a: _mono(fmt, np.arccosh, a, fmt.rel_trans, _dom_acosh),
    "atanh": lambda fmt, a: _mono(fmt, np.arctanh, a, fmt.rel_trans, _dom_atanh),
    "floor": lambda fmt, a: _rounding(fmt, np.floor, a),
    "ceil": lambda fmt, a: _rounding(fmt, np.ceil, a),
    "round": lambda fmt, a: _rounding(fmt, np.rint, a),
    "trunc": lambda fmt, a: _rounding(fmt, np.trunc, a),
    "fmod": _ifmod,
}

_CMPS = ("<", "<=", ">", ">=", "==", "!=")

#: Boolean verdict lattice (int8): certain False / certain True /
#: undecidable here (escalate to the ladder) / certain domain error.
_FALSE, _TRUE, _ESCALATE, _CERT_ERROR = 0, 1, 2, 3


class _Builder:
    """Compiles an Expr into a CSE'd straight-line interval program."""

    def __init__(self, fmt: _Format):
        self.fmt = fmt
        self.instrs: list[tuple] = []
        self.memo: dict[Expr, int] = {}

    def real(self, expr: Expr) -> int:
        slot = self.memo.get(expr)
        if slot is not None:
            return slot
        instr = self._real_instr(expr)
        self.instrs.append(instr)
        slot = len(self.instrs) - 1
        self.memo[expr] = slot
        return slot

    def _real_instr(self, expr: Expr) -> tuple:
        if isinstance(expr, Var):
            return ("var", expr.name)
        if isinstance(expr, Num):
            lo, hi = _num_endpoints(expr.value, self.fmt)
            return ("num", lo, hi)
        if isinstance(expr, Const):
            if expr.name in ("PI", "E"):
                text = _PI_STR if expr.name == "PI" else _E_STR
                lo, hi = _widen_ulps(self.fmt.dtype(text), self.fmt.dtype)
                return ("num", lo, hi)
            if expr.name == "INFINITY":
                inf = self.fmt.dtype(np.inf)
                return ("num", inf, inf)
            if expr.name == "NAN":
                return ("error",)
            raise _Unsupported(f"constant {expr.name}")
        if isinstance(expr, App):
            if expr.op == "if" and len(expr.args) == 3:
                cond = self.boolean(expr.args[0])
                then = self.real(expr.args[1])
                other = self.real(expr.args[2])
                return ("if", cond, then, other)
            fn = _OPS.get(expr.op)
            if fn is None:
                raise _Unsupported(expr.op)
            return ("app", fn, tuple(self.real(arg) for arg in expr.args))
        raise _Unsupported(type(expr).__name__)

    def boolean(self, expr: Expr) -> tuple:
        if isinstance(expr, Const) and expr.name in ("TRUE", "FALSE"):
            return ("const", expr.name == "TRUE")
        if not isinstance(expr, App):
            raise _Unsupported("boolean leaf")
        if expr.op in ("and", "or") and len(expr.args) == 2:
            return (expr.op, self.boolean(expr.args[0]), self.boolean(expr.args[1]))
        if expr.op == "not" and len(expr.args) == 1:
            return ("not", self.boolean(expr.args[0]))
        if expr.op in _CMPS and len(expr.args) == 2:
            return ("cmp", expr.op, self.real(expr.args[0]), self.real(expr.args[1]))
        raise _Unsupported(expr.op)


def _cmp_verdict(op: str, l: _IV, r: _IV):
    if op == "<":
        true = l.hi < r.lo
        false = l.lo >= r.hi
    elif op == "<=":
        true = l.hi <= r.lo
        false = l.lo > r.hi
    elif op == ">":
        true = l.lo > r.hi
        false = l.hi <= r.lo
    elif op == ">=":
        true = l.lo >= r.hi
        false = l.hi < r.lo
    else:  # == / !=
        err = l.err | r.err
        point_eq = ~err & (l.lo == l.hi) & (r.lo == r.hi) & (l.lo == r.lo)
        disjoint = (l.hi < r.lo) | (r.hi < l.lo)
        true, false = (point_eq, disjoint) if op == "==" else (disjoint, point_eq)
    verdict = np.where(
        true, np.int8(_TRUE), np.where(false, np.int8(_FALSE), np.int8(_ESCALATE))
    )
    # Operand errors come first, mirroring _eval_bool: a possible error
    # means the ladder's first rung may raise DomainError, so escalate; a
    # certain error means it must.
    verdict = np.where(l.err | r.err, np.int8(_ESCALATE), verdict)
    return np.where(l.cert | r.cert, np.int8(_CERT_ERROR), verdict).astype(np.int8)


def _bool_verdict(node: tuple, slots: list, n: int):
    kind = node[0]
    if kind == "const":
        return np.full(n, _TRUE if node[1] else _FALSE, dtype=np.int8)
    if kind == "cmp":
        return _cmp_verdict(node[1], slots[node[2]], slots[node[3]])
    if kind == "not":
        v = _bool_verdict(node[1], slots, n)
        return np.where(
            v == _FALSE, np.int8(_TRUE), np.where(v == _TRUE, np.int8(_FALSE), v)
        ).astype(np.int8)
    a = _bool_verdict(node[1], slots, n)
    b = _bool_verdict(node[2], slots, n)
    # Short-circuit mirror: the first operand's certain verdicts and
    # errors win; only a certain-True "and" / certain-False "or" defers.
    if kind == "and":
        return np.where(a == _TRUE, b, a).astype(np.int8)
    return np.where(a == _FALSE, b, a).astype(np.int8)


class _Program:
    """A compiled straight-line interval program over one format."""

    __slots__ = ("fmt", "instrs", "root", "bool_root")

    def __init__(self, fmt, instrs, root=None, bool_root=None):
        self.fmt = fmt
        self.instrs = instrs
        self.root = root
        self.bool_root = bool_root

    def _run_slots(self, points) -> list:
        fmt = self.fmt
        n = len(points)
        false = np.zeros(n, dtype=bool)
        slots: list = []
        with np.errstate(all="ignore"):
            for instr in self.instrs:
                kind = instr[0]
                if kind == "app":
                    slots.append(instr[1](fmt, *(slots[s] for s in instr[2])))
                elif kind == "var":
                    name = instr[1]
                    vals = np.asarray(
                        [point[name] for point in points], dtype=np.float64
                    ).astype(fmt.dtype)
                    # Non-finite inputs escalate: mpmath's treatment of
                    # infinities is op-specific (e.g. atan2(inf, inf) is a
                    # domain error there but pi/4 under IEEE), so the
                    # ladder stays the authority for those lanes.
                    slots.append(_IV(vals, vals, ~np.isfinite(vals), false))
                elif kind == "num":
                    lo = np.full(n, instr[1], dtype=fmt.dtype)
                    hi = np.full(n, instr[2], dtype=fmt.dtype)
                    finite = math.isfinite(instr[1]) and math.isfinite(instr[2])
                    err = false if finite else np.ones(n, dtype=bool)
                    slots.append(_IV(lo, hi, err, false))
                elif kind == "error":
                    nan = np.full(n, np.nan, dtype=fmt.dtype)
                    true = np.ones(n, dtype=bool)
                    slots.append(_IV(nan, nan, true, true))
                else:  # if
                    verdict = _bool_verdict(instr[1], slots, n)
                    then, other = slots[instr[2]], slots[instr[3]]
                    take = verdict == _TRUE
                    slots.append(
                        _IV(
                            np.where(take, then.lo, other.lo),
                            np.where(take, then.hi, other.hi),
                            np.where(take, then.err, other.err)
                            | (verdict >= _ESCALATE),
                            np.where(take, then.cert, other.cert)
                            | (verdict == _CERT_ERROR),
                        )
                    )
        return slots

    def run(self, points) -> _IV:
        return self._run_slots(points)[self.root]

    def run_bool(self, points):
        slots = self._run_slots(points)
        with np.errstate(all="ignore"):
            return _bool_verdict(self.bool_root, slots, len(points))


def _round_sig(x, bits: int):
    """Round to a ``bits``-bit significand, half-even, unbounded exponent
    (the ladder's ``mp.workprec(bits)`` re-rounding step)."""
    mantissa, exponent = np.frexp(x)
    scaled = np.rint(np.ldexp(mantissa, bits))
    return np.where(np.isfinite(x), np.ldexp(scaled, exponent - bits), x)


def _target_round(fmt: _Format, values):
    """The compound target-format rounding used by ``round_to_format``:
    first to the format's significand width (unbounded exponent), then the
    storage cast that applies overflow/subnormal semantics."""
    sig = _round_sig(values, fmt.target_bits)
    if fmt.storage_cast is not None:
        return fmt.storage_cast(sig)
    if fmt.target_bits == 24:
        return sig.astype(np.float32)
    return sig.astype(np.float64)


class LongDoubleRung(Rung):
    """Rung 1: one extended-precision (``np.longdouble``) interval sweep.

    ~11 bits of headroom over binary64 (or a float64 sweep with >= 29
    bits of headroom for narrower targets); settles everything except
    deep cancellation, which rung 2 (:class:`~.dd.DoubleDoubleRung`)
    re-examines with ~106 effective bits.
    """

    name = "longdouble"

    def __init__(self):
        self._cache = ProgramCache()

    def _real_program(self, expr: Expr, ty: str) -> _Program | None:
        fmt = _format_for(ty)
        if fmt is None:
            return None

        def build():
            builder = _Builder(fmt)
            root = builder.real(expr)
            return _Program(fmt, builder.instrs, root=root)

        return self._cache.get((expr, ty), build)

    def _bool_program(self, expr: Expr) -> _Program | None:
        # Boolean decisions compare real subterms; evaluate those in the
        # widest available dtype so verdicts settle as often as possible.
        fmt = _format_for(F64) or _format_for(F32)
        if fmt is None:
            return None

        def build():
            builder = _Builder(fmt)
            root = builder.boolean(expr)
            return _Program(fmt, builder.instrs, bool_root=root)

        return self._cache.get((expr, "bool"), build)

    def evaluate(
        self, expr: Expr, points: Sequence[dict], ty: str
    ) -> list[PointResult | None] | None:
        program = self._real_program(expr, ty)
        if program is None or not points:
            return None
        n = len(points)
        try:
            result = program.run(points)
        except KeyError:
            # A missing variable fails every point identically; mirror
            # the per-point KeyError the ladder raises.
            return [PointResult(INVALID)] * n
        with np.errstate(all="ignore"):
            rlo = _target_round(program.fmt, result.lo)
            rhi = _target_round(program.fmt, result.hi)
            accept = ~result.err & (rlo == rhi) & (rlo != 0)
        # Pull masks/values into Python objects once; per-element numpy
        # scalar indexing would dominate the batch on large sample sets.
        cert_list = result.cert.tolist()
        accept_list = accept.tolist()
        value_list = rlo.astype(np.float64).tolist()
        out: list[PointResult | None] = []
        for i in range(n):
            if cert_list[i]:
                out.append(PointResult(DOMAIN_ERROR))
            elif accept_list[i]:
                out.append(PointResult(OK, value_list[i]))
            else:
                out.append(None)
        return out


class NumpyBackend(OracleBackend):
    """Vectorized rung cascade with the mpmath ladder as its last rung.

    Real-valued batches run the :func:`~.rungs.run_cascade` driver over
    ``longdouble -> dd``; the surviving residue climbs the unchanged
    mpmath escalation ladder.  Boolean batches use the longdouble sweep
    only (the dd rung carries no boolean/conditional programs — an
    ``if`` anywhere in an expression makes the whole expression
    unsupported on rung 2, and its residue goes straight to the ladder).
    """

    name = "numpy"

    def __init__(self, fallback: MpmathBackend):
        self.fallback = fallback
        self.evaluator = fallback.evaluator
        self._longdouble = LongDoubleRung()
        self._dd = DoubleDoubleRung()
        self._rungs = (self._longdouble, self._dd)
        self._counters = OracleCounters()
        self._counters_lock = threading.Lock()

    # --- point-at-a-time: straight to the ladder ------------------------------

    def eval(self, expr, point, ty=F64):
        return self.fallback.eval(expr, point, ty)

    def eval_bool(self, expr, point):
        return self.fallback.eval_bool(expr, point)

    # --- counters -------------------------------------------------------------

    def _bump(
        self, points: int, fastpath: int, escalated: int, dd: int = 0
    ) -> None:
        with self._counters_lock:
            self._counters.batch_calls += 1
            self._counters.batch_points += points
            self._counters.fastpath_hits += fastpath
            self._counters.escalated_points += escalated
            self._counters.dd_hits += dd
        self._record_batch(points, fastpath=fastpath, escalated=escalated, dd=dd)

    def counters(self) -> OracleCounters:
        # Includes the fallback's own counters: whole batches of
        # unsupported expressions delegate to ``fallback.eval_batch``,
        # which records them itself (escalated residue goes through the
        # bump-free ``_ladder_batch``, so nothing is counted twice).
        with self._counters_lock:
            snapshot = OracleCounters()
            snapshot.merge(self._counters)
        snapshot.merge(self.fallback.counters())
        return snapshot

    # --- batched --------------------------------------------------------------

    def eval_batch(self, expr, points, ty=F64) -> list[PointResult]:
        check_deadline()
        n = len(points)
        if n == 0:
            return self.fallback.eval_batch(expr, points, ty)
        results, residue, hits, applicable = run_cascade(
            self._rungs, expr, points, ty
        )
        if not applicable:
            # No rung could compile the expression for this target:
            # delegate the whole batch so counters follow the historical
            # fallback path.
            return self.fallback.eval_batch(expr, points, ty)
        if residue:
            laddered = self.fallback._ladder_batch(
                expr, [points[i] for i in residue], ty
            )
            for i, outcome in zip(residue, laddered):
                results[i] = outcome
        self._bump(
            n,
            fastpath=n - len(residue),
            escalated=len(residue),
            dd=hits.get(DoubleDoubleRung.name, 0),
        )
        return results  # type: ignore[return-value]

    def eval_bool_batch(self, expr, points) -> list[PointResult]:
        check_deadline()
        n = len(points)
        program = self._longdouble._bool_program(expr)
        if program is None or n == 0:
            return self.fallback.eval_bool_batch(expr, points)
        try:
            verdict = program.run_bool(points)
        except KeyError:
            self._bump(n, fastpath=0, escalated=0)
            return [PointResult(INVALID)] * n
        results: list[PointResult | None] = [None] * n
        residue: list[int] = []
        for i, v in enumerate(verdict.tolist()):
            if v == _CERT_ERROR:
                results[i] = PointResult(DOMAIN_ERROR)
            elif v == _ESCALATE:
                residue.append(i)
            else:
                results[i] = PointResult(OK, 1.0 if v == _TRUE else 0.0)
        if residue:
            laddered = self.fallback._ladder_bool_batch(
                expr, [points[i] for i in residue]
            )
            for i, outcome in zip(residue, laddered):
                results[i] = outcome
        self._bump(n, fastpath=n - len(residue), escalated=len(residue))
        return results  # type: ignore[return-value]
