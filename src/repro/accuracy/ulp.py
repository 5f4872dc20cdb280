"""ULP distance and bits-of-error metrics.

Herbie and Chassis measure accuracy as ``log2`` of the ULP distance between
the computed result and the correctly-rounded true result (paper section
6.2: accuracy is ``p - log2(ULPs)`` where ``p`` is the output precision).
The ordinal encoding maps floats onto consecutive integers so that the ULP
distance is an integer subtraction.

The codec itself lives on :class:`~repro.formats.FloatFormat` — one
implementation per registered format, shared with the sampler's
ordinal-uniform draws so the two can never drift.  The ``ty`` arguments
below accept a format name or a :class:`FloatFormat`; callers in a loop
resolve the format once and pass the :class:`FloatFormat`.
"""

from __future__ import annotations

import math

from ..formats import get_format
from ..ir.types import F64


def ulps_between(a: float, b: float, ty=F64) -> int:
    """Number of representable values between ``a`` and ``b`` in format ``ty``.

    NaN compared with anything (including NaN-vs-non-NaN mismatch) yields
    the worst case.  NaN vs NaN is a perfect match (both "error"), per the
    operators-return-NaN-on-error semantics.
    """
    fmt = get_format(ty)
    a_nan, b_nan = math.isnan(a), math.isnan(b)
    if a_nan and b_nan:
        return 0
    if a_nan or b_nan:
        return 1 << fmt.bits
    return abs(fmt.to_ordinal(a) - fmt.to_ordinal(b))


def bits_of_error(approx: float, exact: float, ty=F64) -> float:
    """``log2`` of the ULP distance: 0 = correctly rounded, ``bits`` = garbage."""
    fmt = get_format(ty)
    ulps = ulps_between(approx, exact, fmt)
    return min(float(fmt.bits), math.log2(ulps + 1))
