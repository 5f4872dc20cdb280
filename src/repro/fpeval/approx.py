"""Simulated approximate accelerator operators.

The paper's targets include *approximate* operators whose whole point is
trading accuracy for speed: AVX's ``rcpps``/``rsqrtps`` (relative error
about 1.5 * 2^-12) and CERN vdt's ``fast_*`` transcendentals (about 8 ulp at
binary64).  We cannot execute the real instructions portably, so we simulate
them deterministically: compute the accurate result, then *degrade* the
significand by zeroing low mantissa bits and injecting a deterministic,
input-dependent perturbation at the retained-precision scale.  This
preserves what matters for Chassis: the operators are measurably less
accurate than their exact counterparts by the documented margin, so the
accuracy model learns their true cost (the *speed* advantage is modeled
by the performance simulator, :mod:`repro.perf`, not here).
"""

from __future__ import annotations

import math
import struct

from . import impls


def _degrade64(value: float, keep_bits: int, salt: int) -> float:
    """Keep only ``keep_bits`` significand bits of a binary64 value.

    A deterministic pseudo-random offset of up to one retained-precision ulp
    is added first (keyed by the bit pattern and ``salt``) so the error
    isn't pure truncation — real approximate instructions err in both
    directions.
    """
    if not math.isfinite(value) or value == 0.0:
        return value
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    drop = 52 - keep_bits
    if drop <= 0:
        return value
    jitter = (hash((bits, salt)) & ((1 << drop) - 1)) - (1 << (drop - 1))
    bits = (bits + jitter) & ~((1 << drop) - 1)
    (out,) = struct.unpack("<d", struct.pack("<Q", bits))
    return out


def _degrade32(value: float, keep_bits: int, salt: int) -> float:
    """Degrade then round to binary32 (for f32 approximate instructions)."""
    return impls.to_f32(_degrade64(impls.to_f32(value), keep_bits, salt))


# --- AVX approximate instructions ---------------------------------------------------

#: rcpps/rsqrtps guarantee |rel err| <= 1.5 * 2^-12: ~12 good bits.
_AVX_APPROX_BITS = 12


def rcp32(x: float) -> float:
    """AVX ``rcpps``: fast approximate single-precision reciprocal."""
    return _degrade32(impls.div64(1.0, x), _AVX_APPROX_BITS, salt=0xA1)


def rsqrt32(x: float) -> float:
    """AVX ``rsqrtps``: fast approximate single-precision 1/sqrt(x)."""
    if x < 0.0:
        return math.nan
    if x == 0.0:
        return math.inf
    return _degrade32(1.0 / math.sqrt(x), _AVX_APPROX_BITS, salt=0xA2)


# --- vdt-style fast transcendentals ----------------------------------------------------

#: vdt targets ~8 ulp of binary64 error: about 50 good bits.
_VDT_FAST_BITS = 49
#: vdt's cruder "approx" variants (e.g. appr_isqrt): much less accurate.
_VDT_APPR_BITS = 16


def _vdt_fast(fn, salt):
    def fast_fn(x: float) -> float:
        return _degrade64(fn(x), _VDT_FAST_BITS, salt)

    fast_fn.__name__ = f"fast_{getattr(fn, '__name__', 'op')}"
    return fast_fn


fast_exp64 = _vdt_fast(impls.exp64, 0xB0)
fast_log64 = _vdt_fast(impls.log64, 0xB1)
fast_sin64 = _vdt_fast(impls.sin64, 0xB2)
fast_cos64 = _vdt_fast(impls.cos64, 0xB3)
fast_tan64 = _vdt_fast(impls.tan64, 0xB4)
fast_tanh64 = _vdt_fast(impls.tanh64, 0xB5)
fast_asin64 = _vdt_fast(impls.asin64, 0xB6)
fast_acos64 = _vdt_fast(impls.acos64, 0xB7)
fast_atan64 = _vdt_fast(impls.atan64, 0xB8)


def fast_isqrt64(x: float) -> float:
    """vdt ``fast_isqrt``: approximate 1/sqrt at ~fast precision."""
    if x < 0.0:
        return math.nan
    if x == 0.0:
        return math.inf
    return _degrade64(1.0 / math.sqrt(x), _VDT_FAST_BITS, salt=0xB9)


def appr_isqrt64(x: float) -> float:
    """vdt ``appr_isqrt``: cruder, even faster 1/sqrt approximation."""
    if x < 0.0:
        return math.nan
    if x == 0.0:
        return math.inf
    return _degrade64(1.0 / math.sqrt(x), _VDT_APPR_BITS, salt=0xBA)
