"""Synthesis of correctly-rounded operator implementations (paper section 4.2).

When a target description provides no linking information for an operator,
Chassis synthesizes a maximally-accurate implementation from the operator's
desugaring using Rival.  We do the same with the adaptive interval oracle
(:func:`~repro.rival.eval.evaluate`): enclosures tighten until the
result rounds unambiguously into the output format.  :func:`mp_eval` is
the fixed-precision mpmath point evaluator series expansion differentiates.
"""

from __future__ import annotations

import math
from typing import Callable

from ..ir.expr import App, Const, Expr, Num, Var
from ..rival.eval import DomainError, PrecisionExhausted, RivalEvaluator

#: The stateless ladder every synthesized operator calls (a
#: ``RivalEvaluator`` only so perfbench's ``scalar`` layer sees the calls).
_LADDER = RivalEvaluator()

#: Point semantics of each real operator on an mpmath context ``c``.
_MP_OPS: dict[str, Callable] = {
    "+": lambda c, a, b: a + b,
    "-": lambda c, a, b: a - b,
    "*": lambda c, a, b: a * b,
    "/": lambda c, a, b: a / b,
    "neg": lambda c, a: -a,
    "fabs": lambda c, a: abs(a),
    "fmin": lambda c, a, b: min(a, b),
    "fmax": lambda c, a, b: max(a, b),
    "copysign": lambda c, a, b: abs(a) if b >= 0 else -abs(a),
    "sqrt": lambda c, a: c.sqrt(a),
    "cbrt": lambda c, a: c.cbrt(a) if a >= 0 else -c.cbrt(-a),
    "pow": lambda c, a, b: c.power(a, b),
    "hypot": lambda c, a, b: c.hypot(a, b),
    "exp": lambda c, a: c.exp(a),
    "exp2": lambda c, a: c.power(2, a),
    "expm1": lambda c, a: c.expm1(a),
    "log": lambda c, a: c.log(a),
    "log2": lambda c, a: c.log(a, 2),
    "log10": lambda c, a: c.log10(a),
    "log1p": lambda c, a: c.log1p(a),
    "sin": lambda c, a: c.sin(a),
    "cos": lambda c, a: c.cos(a),
    "tan": lambda c, a: c.tan(a),
    "asin": lambda c, a: c.asin(a),
    "acos": lambda c, a: c.acos(a),
    "atan": lambda c, a: c.atan(a),
    "atan2": lambda c, a, b: c.atan2(a, b),
    "sinh": lambda c, a: c.sinh(a),
    "cosh": lambda c, a: c.cosh(a),
    "tanh": lambda c, a: c.tanh(a),
    "asinh": lambda c, a: c.asinh(a),
    "acosh": lambda c, a: c.acosh(a),
    "atanh": lambda c, a: c.atanh(a),
    "floor": lambda c, a: c.floor(a),
    "ceil": lambda c, a: c.ceil(a),
    "round": lambda c, a: c.nint(a),
    "trunc": lambda c, a: c.floor(a) if a >= 0 else c.ceil(a),
    "fmod": lambda c, a, b: a - b * (c.floor(a / b) if (a / b) >= 0 else c.ceil(a / b)),
}

#: Operators whose work grows with the size of their argument's exponent
#: (argument reduction, or a result exponent that is itself huge).
_REDUCING_OPS = frozenset({"sin", "cos", "tan", "exp"})


def mp_eval(expr: Expr, env: dict, ctx):
    """Evaluate a real expression on the mpmath context ``ctx`` at its
    working precision (``env`` holds ``ctx.mpf`` values).

    Callers pass a context of their own, never the process-global
    ``mpmath.mp``, so concurrent evaluations share no precision state.
    Domain errors surface as mpmath exceptions or complex results, which
    callers convert to NaN.  A finite ``sin``/``cos``/``tan``/``exp``
    argument whose magnitude exceeds ``2**ctx.prec`` raises ValueError
    rather than asking mpmath for work that grows with the exponent
    (``sin(exp(1/u))`` at a tiny ``u`` would not return).
    """
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Num):
        return ctx.mpf(expr.value.numerator) / ctx.mpf(expr.value.denominator)
    if isinstance(expr, Const):
        if expr.name == "PI":
            return ctx.pi()
        if expr.name == "E":
            return ctx.e()
        if expr.name == "INFINITY":
            return ctx.mpf("inf")
        return ctx.mpf("nan")
    assert isinstance(expr, App)
    fn = _MP_OPS.get(expr.op)
    if fn is None:
        raise KeyError(f"no mpmath semantics for {expr.op!r}")
    args = [mp_eval(a, env, ctx) for a in expr.args]
    if (
        expr.op in _REDUCING_OPS
        and ctx.isfinite(args[0])
        and ctx.mag(args[0]) > ctx.prec
    ):
        raise ValueError(f"{expr.op} argument too large at {ctx.prec} bits")
    result = fn(ctx, *args)
    if isinstance(result, ctx.mpc):
        raise ValueError(f"complex result from {expr.op}")
    return result


def synthesize_impl(
    approx: Expr, params: tuple[str, ...], ret_type: str
) -> Callable[..., float]:
    """Build a correctly-rounded implementation of a desugaring.

    Uses the adaptive interval oracle (our Rival stand-in): enclosures are
    tightened until the result rounds unambiguously into the output format,
    so cross-magnitude cancellations (``log1p(1e-300)``) round correctly
    rather than collapsing at a fixed working precision.
    """

    def impl(*args: float) -> float:
        try:
            return _LADDER.eval(approx, dict(zip(params, args)), ret_type)
        except (DomainError, PrecisionExhausted, KeyError, ValueError):
            return math.nan

    impl.__name__ = "synth_impl"
    return impl
