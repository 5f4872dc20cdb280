"""Native floating-point operator implementations.

These are the "linked" implementations a Chassis target can reference
(paper figure 3, ``#:link``): ordinary IEEE-754 binary64 operations built on
Python's float/math, and binary32 operations computed in double then rounded
(values of binary32 format are represented as exactly-f32-representable
Python floats throughout the system).

Per the paper's operator abstraction (section 4.1), operators are pure and
total: domain errors return NaN, overflow returns ±inf.
"""

from __future__ import annotations

import math

import numpy as np


#: Values at or beyond this round to binary32 infinity (max f32 + half ulp).
_F32_OVERFLOW = 3.402823669209385e38


def to_f32(x: float) -> float:
    """Round a double to binary32, returned as an exactly-representable float."""
    if x >= _F32_OVERFLOW:
        return math.inf
    if x <= -_F32_OVERFLOW:
        return -math.inf
    return float(np.float32(x))


def _total(fn):
    """Wrap a math function so domain errors become NaN and overflow ±inf."""

    def wrapped(*args: float) -> float:
        try:
            return fn(*args)
        except ValueError:
            return math.nan
        except OverflowError:
            return math.inf
        except ZeroDivisionError:
            return math.nan

    wrapped.__name__ = getattr(fn, "__name__", "op")
    return wrapped


# --- binary64 primitives -------------------------------------------------------


def add64(a: float, b: float) -> float:
    return a + b


def sub64(a: float, b: float) -> float:
    return a - b


def mul64(a: float, b: float) -> float:
    return a * b


def div64(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    try:
        return a / b
    except OverflowError:  # pragma: no cover - huge/denormal corner
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def neg64(a: float) -> float:
    return -a


def fabs64(a: float) -> float:
    return abs(a)


def fma64(a: float, b: float, c: float) -> float:
    """Fused multiply-add: a*b + c with a single rounding.

    Python lacks math.fma before 3.13, so we compute the exact result as
    one integer ratio and round it once: ``int / int`` is correctly
    rounded (it is the division ``float(Fraction)`` does), and overflow
    returns ±inf.  Infinities and NaNs short-circuit.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        return a * b + c
    na, da = a.as_integer_ratio()
    nb, db = b.as_integer_ratio()
    nc, dc = c.as_integer_ratio()
    n = na * nb * dc + nc * da * db
    try:
        return n / (da * db * dc)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def fms64(a: float, b: float, c: float) -> float:
    """Fused multiply-subtract: a*b - c, single rounding."""
    return fma64(a, b, -c)


def fnma64(a: float, b: float, c: float) -> float:
    """Fused negate-multiply-add: -(a*b) + c, single rounding."""
    return fma64(-a, b, c)


def fnms64(a: float, b: float, c: float) -> float:
    """Fused negate-multiply-subtract: -(a*b) - c, single rounding."""
    return fma64(-a, b, -c)


sqrt64 = _total(math.sqrt)
cbrt64 = _total(lambda x: math.copysign(abs(x) ** (1.0 / 3.0), x))
exp64 = _total(math.exp)
expm164 = _total(math.expm1)
exp264 = _total(lambda x: 2.0**x)
log64 = _total(math.log)
log264 = _total(math.log2)
log1064 = _total(math.log10)
log1p64 = _total(math.log1p)
sin64 = _total(math.sin)
cos64 = _total(math.cos)
tan64 = _total(math.tan)
asin64 = _total(math.asin)
acos64 = _total(math.acos)
atan64 = _total(math.atan)
atan264 = _total(math.atan2)
sinh64 = _total(math.sinh)
cosh64 = _total(math.cosh)
tanh64 = _total(math.tanh)
asinh64 = _total(math.asinh)
acosh64 = _total(math.acosh)
atanh64 = _total(math.atanh)
hypot64 = _total(math.hypot)
floor64 = _total(math.floor)
ceil64 = _total(math.ceil)
trunc64 = _total(math.trunc)
round64 = _total(lambda x: float(round(x)))
fmod64 = _total(math.fmod)
copysign64 = math.copysign


def pow64(a: float, b: float) -> float:
    try:
        result = math.pow(a, b)
    except ValueError:
        return math.nan
    except OverflowError:
        return math.inf
    return result


def fmin64(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return min(a, b)


def fmax64(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return max(a, b)


# --- binary32 wrappers -----------------------------------------------------------


def f32_of(fn64):
    """Build the binary32 version of a binary64 op: compute wide, round once.

    Inputs are assumed already binary32-representable; the double-rounding
    introduced by computing transcendental functions in binary64 first is
    far below the half-ulp target and is the standard way libm implements
    float functions.
    """

    def f32_fn(*args: float) -> float:
        return to_f32(fn64(*args))

    f32_fn.__name__ = fn64.__name__ + "_f32"
    return f32_fn


add32 = f32_of(add64)
sub32 = f32_of(sub64)
mul32 = f32_of(mul64)
div32 = f32_of(div64)
neg32 = neg64  # exact: negation never rounds
fabs32 = fabs64
sqrt32 = f32_of(sqrt64)
fma32 = f32_of(fma64)
fms32 = f32_of(fms64)
fnma32 = f32_of(fnma64)
fnms32 = f32_of(fnms64)


def cast_to_f32(a: float) -> float:
    """Demote binary64 -> binary32 (rounds)."""
    return to_f32(a)


def cast_to_f64(a: float) -> float:
    """Promote binary32 -> binary64 (exact)."""
    return a


# --- generic narrow-format wrappers ----------------------------------------------


def format_of(fn64, fmt):
    """Build a narrow-format version of a binary64 op: compute wide, round once.

    The narrow-format twin of :func:`f32_of`, parameterized by a
    :class:`~repro.formats.FloatFormat`: inputs are assumed already
    representable in ``fmt``, the operation computes in binary64, and the
    result rounds into the format with the same compound rounding the
    oracle stack uses (``FloatFormat.round_float``).
    """
    round_float = fmt.round_float

    def fmt_fn(*args: float) -> float:
        return round_float(fn64(*args))

    fmt_fn.__name__ = f"{fn64.__name__}_{fmt.suffix}"
    return fmt_fn


def cast_into(fmt):
    """A demoting cast (binary64 -> ``fmt``), named for the MathLink."""
    round_float = fmt.round_float

    def cast_fn(a: float) -> float:
        return round_float(a)

    cast_fn.__name__ = f"cast_{fmt.suffix}"
    return cast_fn
