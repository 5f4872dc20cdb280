"""Series-expansion candidate generation (paper sections 2, 3.1).

Like Herbie, Chassis supplements rewriting with Taylor expansions: a
subexpression can be replaced by a truncated series around 0 or around
infinity.  This is also how Chassis implements transcendental functions on
targets that lack them (the paper's AVX discussion: "AVX code must use
polynomial approximations instead").

Expansions are computed numerically with mpmath on the subexpression's
*desugaring* and returned as real polynomial expressions in Horner form;
the caller lowers them through instruction selection or transcription.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath.libmp import NoConvergence, from_str

from ..ir.expr import Expr, Num, Var, add, div, mul
from ..targets.synth import mp_eval

#: Working precision for numerical differentiation.
_SERIES_PREC = 160
#: Coefficients smaller than this (relative to the largest) are dropped
#: (a raw libmp value: 1e-40 rounded to 53 bits).
_COEFF_CUTOFF = from_str("1e-40", 53, "n")
#: Idle private mpmath contexts.  Each expansion borrows one, so
#: concurrent expansions never share precision state, and contexts
#: outlive the (often short-lived request) threads that used them.
_CONTEXTS: list[mpmath.MPContext] = []


@contextmanager
def _private_context():
    """Borrow an idle private mpmath context at the series precision."""
    try:
        ctx = _CONTEXTS.pop()
    except IndexError:
        ctx = mpmath.MPContext()
    try:
        with ctx.workprec(_SERIES_PREC):
            yield ctx
    finally:
        _CONTEXTS.append(ctx)


def _to_number(coeff) -> Fraction | None:
    """Convert an mpf coefficient to an exact literal (via nearest double)."""
    try:
        value = float(coeff)
    except (OverflowError, ValueError):
        return None
    if not math.isfinite(value):
        return None  # overflowed the double range: degenerate series
    if value == 0.0 and abs(coeff) > 0:
        return None  # underflowed: the series is degenerate here
    return Fraction(value)


def _horner(var_expr: Expr, coeffs: list[Fraction]) -> Expr:
    """Build sum(c_k * v^k) in Horner form, skipping zero coefficients."""
    poly: Expr = Num(coeffs[-1])
    for coeff in reversed(coeffs[:-1]):
        poly = mul(var_expr, poly)
        if coeff != 0:
            poly = add(Num(coeff), poly)
    return poly


def taylor_coeffs(
    real_expr: Expr, var: str, around: float, degree: int, direction: int = 0
) -> list[Fraction] | None:
    """Taylor coefficients of the expression in ``var`` at ``around``.

    ``direction`` follows mpmath's convention: 0 is a two-sided (central)
    expansion, +1/-1 expand one-sidedly (used for expansions at +/-
    infinity, which often have a pole on the other side).  Returns None
    when the expression is singular there or differentiation fails.
    """
    with _private_context() as ctx:
        def fn(t):
            try:
                return mp_eval(real_expr, {var: ctx.mpf(around) + t}, ctx)
            except (ValueError, ZeroDivisionError, KeyError):
                if t == 0:
                    # Removable singularity at the expansion point (common
                    # for at-infinity expansions like (sqrt(1+u^2)-1)/u):
                    # take the limit from the valid side(s).
                    h = ctx.mpf(2) ** (-_SERIES_PREC // 3)
                    sides = {1: (h,), -1: (-h,), 0: (-h, h)}[direction]
                    try:
                        values = [
                            mp_eval(real_expr, {var: ctx.mpf(around) + s}, ctx)
                            for s in sides
                        ]
                        gap = max(values) - min(values)
                        scale = 1 + max(abs(v) for v in values)
                        if gap < scale * ctx.mpf(2) ** (-_SERIES_PREC // 8):
                            return sum(values) / len(values)
                    except (ValueError, ZeroDivisionError, KeyError):
                        pass
                raise NoConvergence("singular")

        try:
            raw = ctx.taylor(fn, 0, degree, direction=direction)
        except Exception:
            return None
        biggest = max((abs(c) for c in raw), default=ctx.zero)
        if biggest == 0 or not ctx.isfinite(biggest):
            return None
        cutoff = biggest * ctx.make_mpf(_COEFF_CUTOFF)
        coeffs = []
        for c in raw:
            if abs(c) < cutoff:
                coeffs.append(Fraction(0))
                continue
            converted = _to_number(c)
            if converted is None:
                return None
            coeffs.append(converted)
        if all(c == 0 for c in coeffs):
            return None
        return coeffs


def series_candidates(
    real_expr: Expr, degree: int = 3, max_candidates: int = 4
) -> list[Expr]:
    """Series-expansion variants of a *univariate* real expression.

    Produces expansions around 0 (polynomial in v) and around infinity
    (polynomial in 1/v), at ``degree`` and one lower degree for a cheaper,
    less accurate option.
    """
    variables = sorted(real_expr.free_vars())
    if len(variables) != 1:
        return []
    var = variables[0]
    var_expr = Var(var)
    out: list[Expr] = []

    for deg in (degree, max(1, degree - 2)):
        coeffs = taylor_coeffs(real_expr, var, 0.0, deg)
        if coeffs:
            out.append(_horner(var_expr, coeffs))
        # Expansion at +/- infinity: f(1/u) around u=0 one-sidedly (the
        # other side frequently has a pole), then u := 1/v.
        at_infinity = real_expr.substitute({var: div(Num(1), Var("__u"))})
        for direction in (1, -1):
            u_coeffs = taylor_coeffs(at_infinity, "__u", 0.0, deg, direction)
            if u_coeffs:
                out.append(_horner(div(Num(1), var_expr), u_coeffs))
        if len(out) >= max_candidates:
            break

    # Deduplicate while preserving order.
    seen: set[Expr] = set()
    unique = []
    for expr in out:
        if expr not in seen:
            seen.add(expr)
            unique.append(expr)
    return unique[:max_candidates]
