"""The numpy oracle's vector engine: batched double-double interval arithmetic.

Every value is an unevaluated sum of two binary64 floats ``hi + lo`` with
``|lo| <= ulp(hi)/2``, giving ~106 effective significand bits, built from
the classic error-free transforms (Knuth two-sum, Dekker split/two-product
— numpy has no vectorized fma, so products split).  Everything is plain
numpy ufunc arithmetic over float64 arrays, so a whole batch is swept in a
handful of vector passes.  The headroom matters most for
cancellation-dominated sample sets, where ordinal-uniform sampling
concentrates mass at tiny magnitudes and ``1 - cos(x)``-style
subtractions wipe out 40+ bits.

Each operator produces an outward-widened *interval* (endpoints are
double-double values) whose margin strictly exceeds the kernel's
worst-case error, so every lane's enclosure contains the true real value.
A real-valued point is settled only when both endpoints round to the same
single nonzero value of the target format; a condition point only when
its verdict is certain.  Everything else — possible domain errors,
non-unique rounding, results that round to zero, operators without a dd
kernel — escalates to the mpmath ladder.  Bit-identity with the ladder
therefore holds by construction.

Soundness notes:

* **Margins.**  Error-free transforms are exact; dd add/mul/div/sqrt
  have relative error below ``2**-103`` (Joldes/Muller/Popescu-style
  bounds, degraded slightly by the fma-free two-product), and the
  transcendental kernels below ``2**-97`` in their guarded ranges.  The
  widening margins (``2**-100`` arithmetic, ``2**-95`` trig, ``2**-92``
  exp, ``2**-90`` + ``2**-95``-absolute log) leave 4-30x measured
  headroom, plus an absolute ``2**-1070`` term covering underflow-inexact
  error terms, and per-lane ``|k| * 2**-102`` for trig argument
  reduction (the dd pi/2 constant's representation error scales with
  the quadrant count).
* **Certain errors of real values need only containment.**  A certain
  domain violation (e.g. a sqrt argument whose enclosure upper endpoint
  is negative) means the true value is certainly outside the domain, and
  the ladder classifies such a point as a domain error on every path (a
  certain violation at some precision raises immediately; a possible
  violation persisting at maximum precision raises the same error).
* **Conditions need nesting: the condition floor.**  The ladder's
  ``eval_bool`` raises ``DomainError`` on any *possible* error it sees at
  its first rung (80 bits), so a certain verdict here is only safe when
  this enclosure contains the ladder's 80-bit one: then "no possible
  error here" implies "no possible error there".  Condition programs
  therefore widen every computed slot (and every non-integer literal and
  constant) by a further ``2**-76`` relative plus ``2**-1070`` absolute,
  against the ladder's per-operation ``2**-77`` relative and
  ``2**-1160`` absolute plus its own 80-bit rounding; variables and
  integer literals stay exact points, as they are on the ladder.
  Induction over the program nests every slot, provided each ladder
  operation is *one* widened evaluation: conditions use only those
  operators (:data:`_COND_OPS`), without the fused cancellation kernels.
  ``cos`` (a shifted ``sin``), ``pow`` and ``exp2`` (``exp(b * log a)``)
  compound several ladder widenings; conditions using them take the
  ladder.
* **Binary64 rounding is exact or refused.**  A dd value is rounded to
  binary64 by comparing ``lo`` against half the gap to ``hi``'s
  neighbor — exact because both are binary64 quantities.  Rounding
  *ties*, gaps that underflow, near-overflow endpoints, and results
  inside (or near) the subnormal range — where the ladder's compound
  rounding (53-bit significand, then storage cast) can double-round
  differently from a single round-to-nearest — all escalate instead of
  guessing.
* **Narrow rounding is exact or refused.**  Formats of at most 24
  significand bits with a vectorized storage cast (binary32, fp16, bf16)
  round the hi limb with the ladder's compound rounding: ``_round_sig``
  to ``p`` bits, then the storage cast.  The true value lies between
  ``hi`` and its binary64 neighbour toward ``lo``, and every ``p``-bit
  rounding boundary is itself a binary64 value, so when ``hi`` and that
  neighbour round alike the value rounds the same (the compound rounding
  is monotone); otherwise the lane escalates.  Overflow to infinity is
  the storage cast's own semantics and settles like any other value.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from fractions import Fraction
from typing import Sequence

import numpy as np
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    mpf_div,
    mpf_e,
    mpf_log,
    mpf_pi,
    mpf_shift,
    mpf_sub,
    to_float,
)

from ...formats import UnknownFormatError, get_format
from ...ir.expr import App, Const, Expr, Num, Var
from ...ir.types import F64
from .base import DOMAIN_ERROR, INVALID, OK, PointResult

#: Compiled programs the rung keeps (programs are small; expressions
#: churn during improvement loops).
MAX_PROGRAMS = 256


class Unsupported(Exception):
    """The expression has no faithful dd program; use the ladder."""


class ProgramCache:
    """LRU of at most :data:`MAX_PROGRAMS` compiled straight-line programs.

    ``None`` entries are cached too: an expression the rung cannot
    compile (an :class:`Unsupported` op) stays unsupported, and re-raising
    the builder on every batch would dominate small-batch calls.
    """

    def __init__(self):
        self._programs: OrderedDict[tuple, object | None] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple, build):
        with self._lock:
            if key in self._programs:
                self._programs.move_to_end(key)
                return self._programs[key]
        try:
            program = build()
        except Unsupported:
            program = None
        with self._lock:
            self._programs[key] = program
            while len(self._programs) > MAX_PROGRAMS:
                self._programs.popitem(last=False)
        return program


# --- widening margins ---------------------------------------------------------

#: Relative margin for dd add/sub/mul/div/sqrt (worst observed bound
#: ~2**-103.4 for fma-free division): >= 10x headroom.
_REL_ARITH = 2.0 ** -100
#: sin/cos kernels: series roundoff ~15 Horner steps at ~2**-103 each.
_REL_TRIG = 2.0 ** -95
#: exp/exp2: Cody-Waite-free reduction pays |k| * 2**-107.5 with
#: |k| <= 1100, so ~2**-97.4 worst-case relative error.
_REL_EXP = 2.0 ** -92
#: expm1 loses a little more cancelling the reduced exponential's 1.
_REL_EXPM1 = 2.0 ** -88
#: log: two Newton corrections leave the exp-kernel error, relative for
#: large results plus a floor absolute term near log(1) = 0 (the Newton
#: residual is the exp kernel's *relative* error, ~2**-98.2 observed
#: worst-case absolute across 600 binades of arguments).
_REL_LOG = 2.0 ** -90
_ABS_LOG = 2.0 ** -95
#: Absolute widening floor: covers underflow-inexact error terms of the
#: error-free transforms (exact only up to the subnormal boundary) and
#: keeps every margin strictly positive.
_TINY = 2.0 ** -1070
#: Per-quadrant absolute reduction error for sin/cos: the dd pi/2
#: constant's ~2**-106 representation error plus the lo-limb product
#: roundoff (~k * 2**-105.3) give ~k * 2**-104.9 observed worst-case;
#: 2**-102 keeps >4x headroom.
_RED_STEP = 2.0 ** -102
#: The condition floor: extra relative widening of every computed slot of
#: a condition program, over the ladder's first-rung ``2**-77`` (see the
#: soundness notes).
_REL_FLOOR = 2.0 ** -76

#: Trig argument reduction trusts np.rint(a * 2/pi) only while the
#: product stays well under 2**52; larger arguments escalate.
_MAX_TRIG_ARG = 2.0 ** 45

#: 2**27 + 1, Dekker's splitter for 53-bit significands.
_SPLITTER = 134217729.0

_INV_LN2_F = 1.4426950408889634  # float64 nearest to 1/ln 2 (seed only)


# --- error-free transforms ----------------------------------------------------


def two_sum(a, b):
    """Knuth's exact addition: returns (s, e) with s = fl(a+b), s+e = a+b.

    Exact for all finite inputs whose sum does not overflow (underflow is
    harmless: subnormal sums are exact).
    """
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a, b):
    """Dekker's fast renormalization; requires |a| >= |b| (or a == 0)."""
    s = a + b
    return s, b - (s - a)


def split(a):
    """Dekker's splitter: a == hi + lo with 26/27-bit halves.

    Overflows (to inf/nan limbs) for |a| >= ~2**996; downstream sealing
    escalates those lanes.
    """
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    """Exact product without fma: p = fl(a*b), p + e = a*b.

    Exact while neither the split nor the product term underflows to the
    subnormal range; below that the error term is merely bounded by one
    subnormal ulp, which the _TINY widening floor covers.
    """
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


# --- double-double value arithmetic (pairs of float64 arrays) -----------------


def dd_add(a, b):
    s1, s2 = two_sum(a[0], b[0])
    t1, t2 = two_sum(a[1], b[1])
    s1, s2 = quick_two_sum(s1, s2 + t1)
    return quick_two_sum(s1, s2 + t2)


def dd_neg(a):
    return (-a[0], -a[1])


def dd_sub(a, b):
    return dd_add(a, dd_neg(b))


def dd_mul(a, b):
    p1, p2 = two_prod(a[0], b[0])
    return quick_two_sum(p1, p2 + a[0] * b[1] + a[1] * b[0])


def dd_mul_f(a, f):
    """dd * float64 (one exact product + the lo-limb correction)."""
    p1, p2 = two_prod(a[0], f)
    return quick_two_sum(p1, p2 + a[1] * f)


def dd_div(a, b):
    q1 = a[0] / b[0]
    r = dd_sub(a, dd_mul_f(b, q1))
    q2 = r[0] / b[0]
    r = dd_sub(r, dd_mul_f(b, q2))
    q3 = r[0] / b[0]
    q, qe = quick_two_sum(q1, q2)
    return dd_add((q, qe), (q3, np.zeros_like(np.asarray(q3))))


def dd_sqrt(a):
    """Karp-Markstein: one Newton correction of the float64 sqrt."""
    s = np.sqrt(a[0])
    e = dd_sub(a, two_prod(s, s))
    with np.errstate(all="ignore"):
        d = np.where(s > 0, e[0] / (s + s), np.where(a[0] == 0, 0.0, np.nan))
    return quick_two_sum(s, d)


def dd_lt(a, b):
    return (a[0] < b[0]) | ((a[0] == b[0]) & (a[1] < b[1]))


def dd_select(mask, a, b):
    return (np.where(mask, a[0], b[0]), np.where(mask, a[1], b[1]))


def dd_min(a, b):
    return dd_select(dd_lt(a, b), a, b)


def dd_max(a, b):
    return dd_select(dd_lt(a, b), b, a)


def _ge_zero(a):
    return (a[0] > 0) | ((a[0] == 0) & (a[1] >= 0))


def _gt_zero(a):
    return (a[0] > 0) | ((a[0] == 0) & (a[1] > 0))


def _le_zero(a):
    return (a[0] < 0) | ((a[0] == 0) & (a[1] <= 0))


def _lt_zero(a):
    return (a[0] < 0) | ((a[0] == 0) & (a[1] < 0))


# --- dd constants and series coefficients -------------------------------------


#: Working precision of the dd constants, rounded to nearest.
_CONST_PREC = 200


def _const_mp(x) -> tuple[float, float]:
    """A raw libmp value as a double-double ``(hi, lo)``."""
    hi = to_float(x, rnd="n")
    return hi, to_float(mpf_sub(x, from_float(hi), _CONST_PREC, "n"), rnd="n")


def _const_frac(frac: Fraction) -> tuple[float, float]:
    hi = float(frac)
    return hi, float(frac - Fraction(hi))


_PI_MP = mpf_pi(_CONST_PREC, "n")
_LN2_MP = mpf_log(from_int(2), _CONST_PREC, "n")
_PI = _const_mp(_PI_MP)
_E = _const_mp(mpf_e(_CONST_PREC, "n"))
_PI_2 = _const_mp(mpf_shift(_PI_MP, -1))
_LN2 = _const_mp(_LN2_MP)
_INV_LN2 = _const_mp(mpf_div(fone, _LN2_MP, _CONST_PREC, "n"))
_INV_LN10 = _const_mp(
    mpf_div(fone, mpf_log(from_int(10), _CONST_PREC, "n"), _CONST_PREC, "n")
)
_TWO_OVER_PI_F = to_float(
    mpf_div(from_int(2), _PI_MP, _CONST_PREC, "n"), rnd="n"
)

#: expm1(r) = r * Q(r) with Q(r) = sum r^j / (j+1)!; 25 terms keep the
#: truncation below 2**-118 on |r| <= ln(2)/2.
_EXPM1_Q = tuple(
    _const_frac(Fraction(1, math.factorial(j + 1))) for j in range(25)
)
#: cos/sin over |r| <= 0.8 (pi/4 plus reduction slop): 15 even/odd terms
#: keep truncation below 2**-106.
_COS_C = tuple(
    _const_frac(Fraction((-1) ** m, math.factorial(2 * m))) for m in range(15)
)
_SIN_C = tuple(
    _const_frac(Fraction((-1) ** m, math.factorial(2 * m + 1)))
    for m in range(15)
)
#: (cos(r) - 1) / t as a series in t = r*r: sum_{m>=1} (-1)^m t^(m-1)/(2m)!
_COSM1_C = tuple(
    _const_frac(Fraction((-1) ** m, math.factorial(2 * m)))
    for m in range(1, 16)
)

_F64_HALF_PI = math.pi / 2
_F64_TWO_PI = 2 * math.pi
_F64_PI = math.pi


def _poly(t, coefs):
    """Horner evaluation of sum coefs[j] * t^j in dd."""
    p = coefs[-1]
    for c in reversed(coefs[:-1]):
        p = dd_add(dd_mul(p, t), c)
    return p


# --- dd transcendental kernels ------------------------------------------------


def _exp_parts(a):
    """Shared exp reduction: returns (exp(r), expm1(r), k) with
    a = k*ln2 + r, |r| <= ln(2)/2 for in-range lanes.  Lanes with
    |a| > 830 (past float64 overflow one way, past underflow-to-zero
    the other) are poisoned with NaN so the interval layer escalates
    them: clipping k silently would evaluate the expm1 polynomial far
    outside its reduced domain and return garbage that *looks* finite."""
    a0 = np.asarray(a[0], dtype=np.float64)
    k = np.rint(a0 * _INV_LN2_F)
    bad = ~np.isfinite(k) | (np.abs(a0) > 830.0)
    k = np.where(bad, 0.0, k)
    r = dd_sub(a, dd_mul_f(_LN2, k))
    em1 = dd_mul(r, _poly(r, _EXPM1_Q))
    poison = np.where(bad, np.nan, 0.0)
    em1 = (em1[0] + poison, em1[1] + poison)
    return dd_add(em1, (1.0, 0.0)), em1, k


def dd_exp(a):
    p, _, k = _exp_parts(a)
    ki = k.astype(np.int64)
    return (np.ldexp(p[0], ki), np.ldexp(p[1], ki))


def dd_expm1(a):
    # k == 0 lanes take the direct series (full relative accuracy for
    # tiny arguments — the dd pair (1, r) holds 1 + r exactly); others
    # subtract 1 from the scaled exponential, which cancels at most
    # ~1.8x (|expm1| >= 0.29 once |a| > ln(2)/2).
    p, em1, k = _exp_parts(a)
    ki = k.astype(np.int64)
    scaled = (np.ldexp(p[0], ki), np.ldexp(p[1], ki))
    return dd_select(k == 0, em1, dd_add(scaled, (-1.0, 0.0)))


def dd_log(a):
    """log via two Newton corrections of the float64 seed:
    y <- y + (a * exp(-y) - 1).  The first step squares the seed's
    ~2**-52 relative error away; the second removes the first step's
    residual, leaving only the exp kernel's error (absolute ~2**-101
    near log = 0, relative ~2**-96 elsewhere — hence the log margins).
    Arguments >= ~2**996 overflow the Dekker split and escalate."""
    y = (np.log(np.asarray(a[0], dtype=np.float64)), np.zeros_like(a[0]))
    for _ in range(2):
        p = dd_mul(a, dd_exp(dd_neg(y)))
        y = dd_add(y, dd_add(p, (-1.0, 0.0)))
    return y


def _sincos_parts(a):
    """Reduce mod pi/2 and evaluate both series; returns
    (sin r, cos r, t = r*r, quadrant, unreduced_mask, |k|)."""
    a0 = np.asarray(a[0], dtype=np.float64)
    k = np.rint(a0 * _TWO_OVER_PI_F)
    k = np.where(np.isfinite(k), k, 0.0)
    bad = np.abs(a0) > _MAX_TRIG_ARG
    k = np.where(bad, 0.0, k)
    r = dd_sub(a, dd_mul_f(_PI_2, k))
    # A wrong quadrant from np.rint would leave |r| > pi/4; the guard
    # catches both that and any slop past the series' validated range.
    bad = bad | (np.abs(r[0]) > 0.8)
    t = dd_mul(r, r)
    c = _poly(t, _COS_C)
    s = dd_mul(r, _poly(t, _SIN_C))
    return s, c, t, np.mod(k, 4.0), bad, np.abs(k)


def dd_sin(a):
    """sin value plus per-lane (escalate_mask, absolute error margin)."""
    s, c, t, q, bad, kabs = _sincos_parts(a)
    v = dd_select(
        q == 0, s, dd_select(q == 1, c, dd_select(q == 2, dd_neg(s), dd_neg(c)))
    )
    margin = np.abs(v[0]) * _REL_TRIG + kabs * _RED_STEP
    return v, bad, margin


def dd_cos(a):
    s, c, t, q, bad, kabs = _sincos_parts(a)
    v = dd_select(
        q == 0, c, dd_select(q == 1, dd_neg(s), dd_select(q == 2, dd_neg(c), s))
    )
    margin = np.abs(v[0]) * _REL_TRIG + kabs * _RED_STEP
    return v, bad, margin


def dd_cosm1(a):
    """cos(a) - 1, computed so tiny arguments keep relative accuracy.

    A dd value near 1 carries at best ~2**-107 *absolute* information
    (the lo limb's quantization), so ``1 - cos(x)`` computed through the
    plain cos node cannot settle once ``x**2/2`` drops below ~2**-53 —
    no margin bookkeeping can recover bits the representation already
    lost.  This kernel never forms the value near 1: unreduced lanes
    (k == 0, r == a exactly) evaluate ``t * P(t)`` with
    ``P(t) = sum_{m>=1} (-1)^m t^(m-1) / (2m)!``, where every error term
    is proportional to t, keeping full relative accuracy at arbitrarily
    tiny arguments.  Reduced lanes subtract 1 from the quadrant value
    (no cancellation concern: |cos - 1| is tiny only near k == 0 mod 4,
    and those lanes' margins carry the k-reduction term anyway).
    """
    s, c, t, q, bad, kabs = _sincos_parts(a)
    series = dd_mul(t, _poly(t, _COSM1_C))
    cosv = dd_select(
        q == 0, c, dd_select(q == 1, dd_neg(s), dd_select(q == 2, dd_neg(c), s))
    )
    general = dd_add(cosv, (-1.0, 0.0))
    small = kabs == 0
    v = dd_select(small, series, general)
    margin = np.where(
        small,
        np.abs(t[0]) * _REL_TRIG,
        np.abs(cosv[0]) * _REL_TRIG + kabs * _RED_STEP
        + np.abs(general[0]) * _REL_ARITH,
    )
    return v, bad, margin


# --- interval layer -----------------------------------------------------------


class _Iv:
    """One program slot: dd endpoint pairs plus error/certainty masks."""

    __slots__ = ("lo", "hi", "err", "cert")

    def __init__(self, lo, hi, err, cert):
        self.lo = lo
        self.hi = hi
        self.err = err
        self.cert = cert


def _widen(lo, hi, rel, extra=None):
    """Outward widening; margins exceed every kernel error bound above."""
    m_lo = np.abs(lo[0]) * rel + _TINY
    m_hi = np.abs(hi[0]) * rel + _TINY
    if extra is not None:
        m_lo = m_lo + extra
        m_hi = m_hi + extra
    return dd_add(lo, (-m_lo, 0.0)), dd_add(hi, (m_hi, 0.0))


def _seal(lo, hi, err, cert) -> _Iv:
    """Non-finite limbs (overflow, split overflow, domain nans) and
    inverted endpoints escalate."""
    bad = (
        ~np.isfinite(lo[0]) | ~np.isfinite(lo[1])
        | ~np.isfinite(hi[0]) | ~np.isfinite(hi[1])
    )
    inverted = ~bad & dd_lt(hi, lo)
    return _Iv(lo, hi, err | bad | inverted, cert)


def _flags(*ivs):
    err = ivs[0].err
    cert = ivs[0].cert
    for iv in ivs[1:]:
        err = err | iv.err
        cert = cert | iv.cert
    return err, cert


def _d_add(a, b):
    err, cert = _flags(a, b)
    lo, hi = _widen(dd_add(a.lo, b.lo), dd_add(a.hi, b.hi), _REL_ARITH)
    return _seal(lo, hi, err, cert)


def _d_sub(a, b):
    err, cert = _flags(a, b)
    lo, hi = _widen(dd_sub(a.lo, b.hi), dd_sub(a.hi, b.lo), _REL_ARITH)
    return _seal(lo, hi, err, cert)


def _d_neg(a):
    return _seal(dd_neg(a.hi), dd_neg(a.lo), a.err, a.cert)


def _d_mul(a, b):
    err, cert = _flags(a, b)
    p1 = dd_mul(a.lo, b.lo)
    p2 = dd_mul(a.lo, b.hi)
    p3 = dd_mul(a.hi, b.lo)
    p4 = dd_mul(a.hi, b.hi)
    lo = dd_min(dd_min(p1, p2), dd_min(p3, p4))
    hi = dd_max(dd_max(p1, p2), dd_max(p3, p4))
    lo, hi = _widen(lo, hi, _REL_ARITH)
    return _seal(lo, hi, err, cert)


def _d_div(a, b):
    err, cert = _flags(a, b)
    straddle = _le_zero(b.lo) & _ge_zero(b.hi)
    # Exact-chain point zeros are certain errors (pointness transfers to
    # the ladder); straddles merely escalate.
    point_zero = (
        (b.lo[0] == 0) & (b.lo[1] == 0) & (b.hi[0] == 0) & (b.hi[1] == 0)
        & ~b.err
    )
    q1 = dd_div(a.lo, b.lo)
    q2 = dd_div(a.lo, b.hi)
    q3 = dd_div(a.hi, b.lo)
    q4 = dd_div(a.hi, b.hi)
    lo = dd_min(dd_min(q1, q2), dd_min(q3, q4))
    hi = dd_max(dd_max(q1, q2), dd_max(q3, q4))
    lo, hi = _widen(lo, hi, _REL_ARITH)
    return _seal(lo, hi, err | straddle, cert | point_zero)


def _d_fabs(a):
    pos = _ge_zero(a.lo)
    neg = _le_zero(a.hi)
    zero = (np.zeros_like(a.lo[0]), np.zeros_like(a.lo[0]))
    neg_hi = dd_neg(a.hi)
    neg_lo = dd_neg(a.lo)
    lo = dd_select(pos, a.lo, dd_select(neg, neg_hi, zero))
    hi = dd_select(pos, a.hi, dd_select(neg, neg_lo, dd_max(neg_lo, a.hi)))
    return _seal(lo, hi, a.err, a.cert)


def _d_fmin(a, b):
    err, cert = _flags(a, b)
    return _seal(dd_min(a.lo, b.lo), dd_min(a.hi, b.hi), err, cert)


def _d_fmax(a, b):
    err, cert = _flags(a, b)
    return _seal(dd_max(a.lo, b.lo), dd_max(a.hi, b.hi), err, cert)


def _d_sqrt(a):
    bad = ~_ge_zero(a.lo)
    certainly = _lt_zero(a.hi)
    lo, hi = _widen(dd_sqrt(a.lo), dd_sqrt(a.hi), _REL_ARITH)
    return _seal(lo, hi, a.err | bad, a.cert | certainly)


def _d_exp(a):
    lo, hi = _widen(dd_exp(a.lo), dd_exp(a.hi), _REL_EXP)
    return _seal(lo, hi, a.err, a.cert)


def _d_expm1(a):
    lo, hi = _widen(dd_expm1(a.lo), dd_expm1(a.hi), _REL_EXPM1)
    return _seal(lo, hi, a.err, a.cert)


def _log_core(a):
    """Log endpoints + widening, *without* domain verdicts (pow reuses
    this where a domain violation must escalate rather than settle)."""
    return _widen(dd_log(a.lo), dd_log(a.hi), _REL_LOG, _ABS_LOG)


def _d_log(a):
    bad = ~_gt_zero(a.lo)
    certainly = _le_zero(a.hi)
    lo, hi = _log_core(a)
    return _seal(lo, hi, a.err | bad, a.cert | certainly)


def _d_scale(a, c):
    """Multiply by a positive dd constant (log2/log10/exp2 rescaling)."""
    lo, hi = _widen(dd_mul(a.lo, c), dd_mul(a.hi, c), _REL_ARITH)
    return _seal(lo, hi, a.err, a.cert)


def _d_log2(a):
    return _d_scale(_d_log(a), _INV_LN2)


def _d_log10(a):
    return _d_scale(_d_log(a), _INV_LN10)


def _d_log1p(a):
    one = (np.ones_like(a.lo[0]), np.zeros_like(a.lo[0]))
    shifted = _d_add(a, _Iv(one, one, np.zeros_like(a.err), np.zeros_like(a.err)))
    return _d_log(shifted)


def _d_exp2(a):
    lo, hi = _widen(dd_mul(a.lo, _LN2), dd_mul(a.hi, _LN2), _REL_ARITH)
    scaled = _seal(lo, hi, a.err, a.cert)
    return _d_exp(scaled)


def _d_pow(a, b):
    # General branch only: a**b = exp(b * log a) on a certainly > 0.
    # Integer-exponent powers of non-positive bases escalate (the ladder
    # owns them) — and log's *certain* domain verdict must not leak,
    # since pow(-2, 2) is no domain error.
    err, cert = _flags(a, b)
    lo, hi = _log_core(a)
    lg = _seal(lo, hi, err | ~_gt_zero(a.lo), cert)
    return _d_exp(_d_mul(lg, b))


def _periodic_hits(lo_q, hi_q):
    """Does the quotient interval contain an integer (an extremum)?

    The quotients are computed from the endpoints' hi limbs in float64:
    one shift subtraction and one division (each <= 2**-53 relative)
    plus the neglected dd lo limbs (<= 2**-53 of the argument) bound the
    quotient error by ~2**-51.5 * (1 + |q|); a 2**-50 slack covers that
    with headroom.  Erring toward "extremum present" only widens
    enclosures, but the slack must stay *small*: an absolute slack like
    1e-6 would make every tiny argument "contain" a cos
    extremum and escalate exactly the cancellation lanes this rung
    exists for."""
    slack = 2.0 ** -50 * (1.0 + np.abs(lo_q) + np.abs(hi_q))
    return np.floor(hi_q + slack) >= np.ceil(lo_q - slack)


def _trig_interval(a, kernel, max_shift, min_shift):
    v_lo, bad1, m1 = kernel(a.lo)
    v_hi, bad2, m2 = kernel(a.hi)
    lo = dd_min(v_lo, v_hi)
    hi = dd_max(v_lo, v_hi)
    # The kernels return per-lane absolute margins; applying the sum to
    # both endpoints is conservative for whichever endpoint contributed
    # less.
    lo, hi = _widen(lo, hi, 0.0, m1 + m2)
    has_max = _periodic_hits(
        (a.lo[0] - max_shift) / _F64_TWO_PI, (a.hi[0] - max_shift) / _F64_TWO_PI
    )
    has_min = _periodic_hits(
        (a.lo[0] - min_shift) / _F64_TWO_PI, (a.hi[0] - min_shift) / _F64_TWO_PI
    )
    full = (a.hi[0] - a.lo[0]) >= _F64_TWO_PI
    hi = dd_select(full | has_max, (1.0, 0.0), hi)
    lo = dd_select(full | has_min, (-1.0, 0.0), lo)
    lo = dd_max(lo, (-1.0, 0.0))
    hi = dd_min(hi, (1.0, 0.0))
    return _seal(lo, hi, a.err | bad1 | bad2, a.cert)


def _d_sin(a):
    return _trig_interval(a, dd_sin, _F64_HALF_PI, -_F64_HALF_PI)


def _d_cos(a):
    return _trig_interval(a, dd_cos, 0.0, _F64_PI)


# --- fused cancellation kernels -----------------------------------------------
#
# The builder peepholes ``(- 1 (cos u))``, ``(- (cos u) 1)``,
# ``(- (exp u) 1)`` and ``(- 1 (exp u))`` onto these: computed through
# the plain cos/exp nodes, the intermediate dd value near 1 has already
# quantized away the bits the subtraction needs (see :func:`dd_cosm1`),
# while the fused forms keep every error term proportional to the tiny
# result.  The enclosures still contain the true real value and
# acceptance still demands unique rounding, so bit-identity with the
# ladder (which evaluates the unfused tree at escalating precision) is
# unaffected — the fusion only changes *which* points settle here.


def _d_one_minus_cos(a):
    v_lo, bad1, m1 = dd_cosm1(a.lo)
    v_hi, bad2, m2 = dd_cosm1(a.hi)
    f_lo = dd_neg(v_lo)
    f_hi = dd_neg(v_hi)
    lo = dd_min(f_lo, f_hi)
    hi = dd_max(f_lo, f_hi)
    lo, hi = _widen(lo, hi, 0.0, m1 + m2)
    has_max = _periodic_hits(
        (a.lo[0] - _F64_PI) / _F64_TWO_PI, (a.hi[0] - _F64_PI) / _F64_TWO_PI
    )
    has_min = _periodic_hits(a.lo[0] / _F64_TWO_PI, a.hi[0] / _F64_TWO_PI)
    full = (a.hi[0] - a.lo[0]) >= _F64_TWO_PI
    hi = dd_select(full | has_max, (2.0, 0.0), hi)
    lo = dd_select(full | has_min, (0.0, 0.0), lo)
    lo = dd_max(lo, (0.0, 0.0))
    hi = dd_min(hi, (2.0, 0.0))
    return _seal(lo, hi, a.err | bad1 | bad2, a.cert)


def _d_cosm1(a):
    return _d_neg(_d_one_minus_cos(a))


def _d_one_minus_exp(a):
    return _d_neg(_d_expm1(a))


_D_OPS = {
    "+": _d_add,
    "-": _d_sub,
    "*": _d_mul,
    "/": _d_div,
    "neg": _d_neg,
    "fabs": _d_fabs,
    "fmin": _d_fmin,
    "fmax": _d_fmax,
    "sqrt": _d_sqrt,
    "exp": _d_exp,
    "exp2": _d_exp2,
    "expm1": _d_expm1,
    "log": _d_log,
    "log2": _d_log2,
    "log10": _d_log10,
    "log1p": _d_log1p,
    "sin": _d_sin,
    "cos": _d_cos,
    "pow": _d_pow,
}


def _floored(fn):
    """``fn`` with the condition floor applied to its result."""

    def kernel(*args):
        iv = fn(*args)
        lo, hi = _widen(iv.lo, iv.hi, _REL_FLOOR)
        return _seal(lo, hi, iv.err, iv.cert)

    return kernel


#: Condition-program kernels: the operators whose ladder interval is one
#: widened evaluation (see the soundness notes), each floored.
_COND_OPS = {
    op: _floored(_D_OPS[op])
    for op in (
        "+", "-", "*", "/", "neg", "fabs", "fmin", "fmax", "sqrt",
        "exp", "expm1", "log", "log2", "log10", "log1p", "sin",
    )
}


# --- expression compilation ---------------------------------------------------


def _num_endpoints(frac: Fraction):
    """Compile-time dd enclosure of an exact rational literal."""
    try:
        hi = float(frac)
    except OverflowError:
        raise Unsupported("literal exceeds float range") from None
    if not math.isfinite(hi):
        raise Unsupported("non-finite literal")
    lo = float(frac - Fraction(hi))
    if Fraction(hi) + Fraction(lo) == frac:
        return (hi, lo), (hi, lo)
    pad = abs(lo) * 2.0 ** -51 + _TINY
    return dd_add((hi, lo), (-pad, 0.0)), dd_add((hi, lo), (pad, 0.0))


def _const_endpoints(pair):
    """Enclosure of an irrational dd constant (error < 2**-107 relative)."""
    pad = abs(pair[0]) * 2.0 ** -105 + _TINY
    return dd_add(pair, (-pad, 0.0)), dd_add(pair, (pad, 0.0))


_CMPS = ("<", "<=", ">", ">=", "==", "!=")


class _Builder:
    """Compiles an Expr into a CSE'd straight-line dd interval program.

    ``condition`` builds the real operands of a condition program: the
    :data:`_COND_OPS` kernels only, no fused kernels, and the condition
    floor on non-integer literals and constants.
    """

    def __init__(self, condition: bool = False):
        self.condition = condition
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

    def _leaf(self, lo, hi, exact: bool) -> tuple:
        if self.condition and not exact:
            lo, hi = _widen(lo, hi, _REL_FLOOR)
        return ("num", lo, hi)

    def _real_instr(self, expr: Expr) -> tuple:
        if isinstance(expr, Var):
            return ("var", expr.name)
        if isinstance(expr, Num):
            lo, hi = _num_endpoints(expr.value)
            return self._leaf(lo, hi, expr.value.denominator == 1)
        if isinstance(expr, Const):
            if expr.name == "PI":
                return self._leaf(*_const_endpoints(_PI), False)
            if expr.name == "E":
                return self._leaf(*_const_endpoints(_E), False)
            raise Unsupported(f"constant {expr.name}")
        if isinstance(expr, App):
            if self.condition:
                fn = _COND_OPS.get(expr.op)
            else:
                if expr.op == "-" and len(expr.args) == 2:
                    fused = self._fused_sub(expr.args[0], expr.args[1])
                    if fused is not None:
                        return fused
                fn = _D_OPS.get(expr.op)
            if fn is None:
                raise Unsupported(expr.op)
            return ("app", fn, tuple(self.real(arg) for arg in expr.args))
        raise Unsupported(type(expr).__name__)

    def _fused_sub(self, lhs: Expr, rhs: Expr) -> tuple | None:
        """Peephole the cancellation patterns onto fused kernels."""

        def is_one(e: Expr) -> bool:
            return isinstance(e, Num) and e.value == 1

        def arg_of(e: Expr, op: str) -> Expr | None:
            if isinstance(e, App) and e.op == op and len(e.args) == 1:
                return e.args[0]
            return None

        if is_one(lhs):
            u = arg_of(rhs, "cos")
            if u is not None:
                return ("app", _d_one_minus_cos, (self.real(u),))
            u = arg_of(rhs, "exp")
            if u is not None:
                return ("app", _d_one_minus_exp, (self.real(u),))
        if is_one(rhs):
            u = arg_of(lhs, "cos")
            if u is not None:
                return ("app", _d_cosm1, (self.real(u),))
            u = arg_of(lhs, "exp")
            if u is not None:
                return ("app", _d_expm1, (self.real(u),))
        return None

    def boolean(self, expr: Expr) -> tuple:
        if isinstance(expr, Const) and expr.name in ("TRUE", "FALSE"):
            return ("const", expr.name == "TRUE")
        if not isinstance(expr, App):
            raise Unsupported("boolean leaf")
        if expr.op in ("and", "or") and len(expr.args) == 2:
            return (expr.op, self.boolean(expr.args[0]), self.boolean(expr.args[1]))
        if expr.op == "not" and len(expr.args) == 1:
            return ("not", self.boolean(expr.args[0]))
        if expr.op in _CMPS and len(expr.args) == 2:
            return ("cmp", expr.op, self.real(expr.args[0]), self.real(expr.args[1]))
        raise Unsupported(expr.op)


#: Condition verdict lattice (int8): certain False / certain True /
#: undecided here (escalate to the ladder) / certain domain error.
_FALSE, _TRUE, _ESCALATE, _CERT_ERROR = 0, 1, 2, 3


def _dd_eq(a, b):
    return (a[0] == b[0]) & (a[1] == b[1])


def _cmp_verdict(op: str, l: _Iv, r: _Iv):
    if op == "<":
        true = dd_lt(l.hi, r.lo)
        false = ~dd_lt(l.lo, r.hi)
    elif op == "<=":
        true = ~dd_lt(r.lo, l.hi)
        false = dd_lt(r.hi, l.lo)
    elif op == ">":
        true = dd_lt(r.hi, l.lo)
        false = ~dd_lt(r.lo, l.hi)
    elif op == ">=":
        true = ~dd_lt(l.lo, r.hi)
        false = dd_lt(l.hi, r.lo)
    else:  # == / !=
        point_eq = _dd_eq(l.lo, l.hi) & _dd_eq(r.lo, r.hi) & _dd_eq(l.lo, r.lo)
        disjoint = dd_lt(l.hi, r.lo) | dd_lt(r.hi, l.lo)
        true, false = (point_eq, disjoint) if op == "==" else (disjoint, point_eq)
    verdict = np.where(
        true, np.int8(_TRUE), np.where(false, np.int8(_FALSE), np.int8(_ESCALATE))
    )
    # Operand errors come first, mirroring the ladder's _eval_bool: a
    # possible error means its first rung may raise DomainError, so
    # escalate; a certain error means it must.
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
    """A compiled straight-line dd interval program.

    ``root`` is the result slot of a real program, the verdict tree of a
    condition program; ``rounding`` maps a real program's dd endpoints
    into its target format.
    """

    __slots__ = ("instrs", "root", "rounding")

    def __init__(self, instrs, root, rounding=None):
        self.instrs = instrs
        self.root = root
        self.rounding = rounding

    def _slots(self, points) -> list[_Iv]:
        n = len(points)
        false = np.zeros(n, dtype=bool)
        slots: list[_Iv] = []
        with np.errstate(all="ignore"):
            for instr in self.instrs:
                kind = instr[0]
                if kind == "app":
                    slots.append(instr[1](*(slots[s] for s in instr[2])))
                elif kind == "var":
                    vals = np.asarray(
                        [point[instr[1]] for point in points], dtype=np.float64
                    )
                    zero = np.zeros(n, dtype=np.float64)
                    pair = (vals, zero)
                    # Non-finite inputs escalate: mpmath's treatment of
                    # infinities is op-specific, so the ladder stays the
                    # authority for those lanes.
                    slots.append(_Iv(pair, pair, ~np.isfinite(vals), false))
                else:  # num
                    lo = (np.full(n, instr[1][0]), np.full(n, instr[1][1]))
                    hi = (np.full(n, instr[2][0]), np.full(n, instr[2][1]))
                    slots.append(_Iv(lo, hi, false, false))
        return slots

    def run(self, points) -> _Iv:
        return self._slots(points)[self.root]

    def verdicts(self, points):
        slots = self._slots(points)
        with np.errstate(all="ignore"):
            return _bool_verdict(self.root, slots, len(points))


# --- exact dd -> target-format rounding ---------------------------------------


def round_dd_to_f64(hi, lo):
    """Round dd values to binary64, or refuse.

    Returns ``(rounded, escalate)``.  With ``|lo| <= ulp(hi)/2`` the
    round-to-nearest of ``hi + lo`` is either ``hi`` or its neighbor in
    ``lo``'s direction, decided by comparing ``|lo|`` with half the gap
    — both exact binary64 quantities, so the comparison is exact.
    Escalated lanes: exact ties (the value sits on a rounding boundary;
    the widened endpoints land there with probability ~0, and refusing
    is always sound), gaps that underflow or overflow the comparison,
    and |values| below 2**-1000, where the ladder's compound rounding
    (53-bit significand then storage cast) can legitimately double-round
    differently from this single rounding."""
    with np.errstate(all="ignore"):
        direction = np.where(lo > 0.0, np.inf, -np.inf)
        neighbor = np.nextafter(hi, direction)
        gap_half = (neighbor - hi) * 0.5
        mag = np.abs(lo)
        bound = np.abs(gap_half)
        rounded = np.where(mag > bound, neighbor, hi)
        nonzero_lo = lo != 0.0
        escalate = (
            (((gap_half == 0.0) | ~np.isfinite(gap_half)) & nonzero_lo)
            | ((mag == bound) & nonzero_lo)
            | ((np.abs(hi) < 2.0 ** -1000) & nonzero_lo)
        )
    return rounded, escalate


def _round_f64(hi, lo):
    rounded, escalate = round_dd_to_f64(hi, lo)
    return rounded, escalate | ~np.isfinite(rounded)


def _round_sig(x, bits: int):
    """Round to a ``bits``-bit significand, half-even, unbounded exponent
    (the ladder's ``mpf_pos(value, bits)`` re-rounding step; exact in
    binary64 for ``bits <= 52``)."""
    mantissa, exponent = np.frexp(x)
    scaled = np.rint(np.ldexp(mantissa, bits))
    return np.where(np.isfinite(x), np.ldexp(scaled, exponent - bits), x)


def _round_narrow(bits: int, storage_cast, hi, lo):
    """Round dd values into a narrow format, or refuse (see the soundness
    notes): the compound rounding of ``hi`` must match that of ``hi``'s
    binary64 neighbour toward ``lo``."""

    def compound(x):
        return storage_cast(_round_sig(x, bits)).astype(np.float64)

    with np.errstate(all="ignore"):
        rounded = compound(hi)
        toward = compound(np.nextafter(hi, np.where(lo > 0.0, np.inf, -np.inf)))
    return rounded, (lo != 0.0) & (rounded != toward)


def _rounding_for(ty: str):
    """The endpoint rounding into ``ty``; Unsupported for formats wider
    than 24 bits (binary64 aside) or without a vectorized storage cast."""
    if ty == F64:
        return _round_f64
    try:
        fmt = get_format(ty)
    except UnknownFormatError:
        raise Unsupported(f"format {ty}") from None
    if fmt.precision > 24 or fmt.numpy_storage_cast(np.zeros(1)) is None:
        raise Unsupported(f"format {ty}")
    return functools.partial(_round_narrow, fmt.precision, fmt.numpy_storage_cast)


# --- the rung -----------------------------------------------------------------


class DoubleDoubleRung:
    """Batched double-double acceptance filter: real values in binary64
    and narrow formats, and condition verdicts.

    Both entry points return one entry per point — a settled
    :class:`PointResult`, or ``None`` where the ladder must decide — or
    ``None`` instead of a list when the expression (or format) has no dd
    program at all.
    """

    def __init__(self):
        self._cache = ProgramCache()

    def _real_program(self, expr: Expr, ty: str) -> _Program | None:
        def build():
            rounding = _rounding_for(ty)
            builder = _Builder()
            root = builder.real(expr)
            return _Program(builder.instrs, root, rounding)

        return self._cache.get((expr, ty), build)

    def _condition_program(self, expr: Expr) -> _Program | None:
        def build():
            builder = _Builder(condition=True)
            root = builder.boolean(expr)
            return _Program(builder.instrs, root)

        return self._cache.get((expr, "bool"), build)

    def evaluate(
        self, expr: Expr, points: Sequence[dict], ty: str
    ) -> list[PointResult | None] | None:
        program = self._real_program(expr, ty)
        if program is None:
            return None
        try:
            result = program.run(points)
        except KeyError:
            # Missing variable: fails identically everywhere (mirrors
            # the per-point KeyError the ladder would raise).
            return [PointResult(INVALID)] * len(points)
        with np.errstate(all="ignore"):
            rlo, esc_lo = program.rounding(*result.lo)
            rhi, esc_hi = program.rounding(*result.hi)
            accept = (
                ~result.err & ~esc_lo & ~esc_hi & (rlo == rhi) & (rlo != 0)
            )
        # Pull masks/values into Python objects once; per-element numpy
        # scalar indexing would dominate the batch on large sample sets.
        cert_list = result.cert.tolist()
        accept_list = accept.tolist()
        value_list = rlo.tolist()
        out: list[PointResult | None] = []
        for i in range(len(points)):
            if cert_list[i]:
                out.append(PointResult(DOMAIN_ERROR))
            elif accept_list[i]:
                out.append(PointResult(OK, value_list[i]))
            else:
                out.append(None)
        return out

    def evaluate_bool(
        self, expr: Expr, points: Sequence[dict]
    ) -> list[PointResult | None] | None:
        program = self._condition_program(expr)
        if program is None:
            return None
        try:
            verdicts = program.verdicts(points)
        except KeyError:
            return [PointResult(INVALID)] * len(points)
        out: list[PointResult | None] = []
        for v in verdicts.tolist():
            if v == _CERT_ERROR:
                out.append(PointResult(DOMAIN_ERROR))
            elif v == _ESCALATE:
                out.append(None)
            else:
                out.append(PointResult(OK, 1.0 if v == _TRUE else 0.0))
        return out


__all__ = [
    "DoubleDoubleRung",
    "dd_add",
    "dd_cos",
    "dd_div",
    "dd_exp",
    "dd_expm1",
    "dd_log",
    "dd_mul",
    "dd_sin",
    "dd_sqrt",
    "dd_sub",
    "round_dd_to_f64",
    "split",
    "two_prod",
    "two_sum",
]
