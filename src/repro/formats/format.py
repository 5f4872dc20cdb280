"""First-class float-format descriptors.

A :class:`FloatFormat` carries everything the pipeline needs to know about
one number format: the encoding geometry (total bits, significand
precision, exponent range), the ordinal codec that maps floats onto
consecutive integers (so ULP distance is an integer subtraction and
ordinal-uniform sampling is an integer draw), the round-to-format
operation, and the optional per-backend metadata (numpy storage dtype, C
type and literal suffix) that decides which exec backends can carry the
format.

Values of every format are represented throughout the system as Python
floats that are exactly representable in the format (the same convention
binary32 has always used).  That bounds the formats this module can
describe to ``precision <= 53`` and an exponent range inside binary64's —
which covers every IEEE interchange format up to binary64, bfloat16, and
the TensorFloat-style truncated formats, but not binary128 or posits
(those need a software value representation; see ROADMAP).

Rounding is the **compound** rounding the whole oracle stack agrees on:
first round the significand to ``precision`` bits half-even at unbounded
exponent (the mpmath ladder's ``mp.workprec`` re-round, the dd
rung's ``_round_sig``), then apply the storage cast that carries
overflow and subnormal semantics.  Defining every layer against the same
compound guarantees the fast path stays bit-identical with the ladder
for every registered format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["FloatFormat"]

_U64 = 0xFFFFFFFFFFFFFFFF
_ABS64 = 0x7FFFFFFFFFFFFFFF
_ABS32 = 0x7FFFFFFF


def _round_sig_scalar(x: float, bits: int) -> float:
    """Round to a ``bits``-bit significand, half-even, unbounded exponent.

    The scalar twin of the dd rung's ``_round_sig``: ``frexp`` →
    scale → round-half-even → ``ldexp``, all exact in binary64 for
    ``bits <= 53``.
    """
    if x == 0.0 or not math.isfinite(x):
        return x
    mantissa, exponent = math.frexp(x)
    return math.ldexp(float(round(math.ldexp(mantissa, bits))), exponent - bits)


def _bf16_clamp(x: float) -> float:
    """bfloat16 overflow/subnormal semantics via the float32 encoding.

    bfloat16 is the top 16 bits of the binary32 encoding, so rounding a
    binary32 value half-even on bit 16 *is* the bfloat16 storage cast —
    including subnormals, signed zeros, and overflow-to-infinity (a
    mantissa carry into the exponent field is exactly the IEEE overflow
    rule).  NaN short-circuits so the carry cannot turn it into inf.
    """
    if math.isnan(x):
        return math.nan
    with np.errstate(over="ignore"):
        single = np.float32(x)
    (bits,) = struct.unpack("<I", struct.pack("<f", single))
    bits = (bits + 0x7FFF + ((bits >> 16) & 1)) & 0xFFFF0000
    (value,) = struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))
    return float(value)


@dataclass(frozen=True)
class FloatFormat:
    """Immutable descriptor of one floating-point number format."""

    #: Canonical name, the string stored in ``FPCore.precision`` and used
    #: as the operator-table key (``binary64``, ``fp16``, ...).
    name: str
    #: Total encoding width in bits; also the worst-case bits-of-error
    #: (a result is never more than ``2**bits`` ULPs from the truth).
    bits: int
    #: Significand precision including the hidden bit.
    precision: int
    #: Exponent range (of the value, not the biased field) for normals.
    emin: int
    emax: int
    #: Operator-name suffix: operators compute in this format as
    #: ``{base}.{suffix}`` (``add.f64``, ``mul.bf16``).
    suffix: str
    #: Alternate spellings accepted by the registry (``f64``, ``double``).
    aliases: tuple[str, ...] = ()
    #: Ordinal/rounding strategy: one of ``binary64``, ``binary32``,
    #: ``binary16``, ``bfloat16``, or ``generic`` (pure-arithmetic codec
    #: for registry-defined custom formats).
    codec: str = "generic"
    #: C scalar type, or None when no portable C type exists (the C exec
    #: backend then stands down and the Python backend carries the format).
    c_type: str | None = None
    #: Suffix appended to C numeric literals ("f" for float).
    c_literal_suffix: str = ""
    #: numpy *storage* dtype name when one exists ("float16"); bfloat16
    #: has none — its vectorized cast goes through the float32 encoding.
    numpy_dtype: str | None = None
    #: Free-form notes surfaced in ``repro targets --json``.
    description: str = field(default="", compare=False)

    def __post_init__(self):
        if not (2 <= self.precision <= 53):
            raise ValueError(
                f"format {self.name!r}: precision {self.precision} outside "
                "the representable range [2, 53] (values are carried as "
                "exactly-representable binary64 floats)"
            )
        if self.bits - self.precision < 2:
            raise ValueError(
                f"format {self.name!r}: needs >= 2 exponent bits "
                f"(bits={self.bits}, precision={self.precision})"
            )
        if self.emin >= 0 or self.emax <= 0 or self.emin < -1022 or self.emax > 1023:
            raise ValueError(
                f"format {self.name!r}: exponent range ({self.emin}, "
                f"{self.emax}) must straddle 0 inside binary64's"
            )
        # IEEE interchange geometry ties the exponent *range* to the field
        # width: normals use field values 1..2^ebits-2, so emax - emin must
        # equal 2^ebits - 3 or the ordinal codec and the range disagree.
        if self.emax - self.emin != (1 << self.ebits) - 3:
            raise ValueError(
                f"format {self.name!r}: exponent range ({self.emin}, "
                f"{self.emax}) inconsistent with {self.ebits} exponent bits "
                f"(needs emax - emin == {(1 << self.ebits) - 3})"
            )

    # --- geometry ---------------------------------------------------------------

    @property
    def ebits(self) -> int:
        """Exponent field width."""
        return self.bits - self.precision

    @cached_property
    def max_ordinal(self) -> int:
        """Ordinal of the largest finite value (infinity is one past it)."""
        return (((1 << self.ebits) - 2) << (self.precision - 1)) | (
            (1 << (self.precision - 1)) - 1
        )

    @cached_property
    def max_value(self) -> float:
        """Largest finite value."""
        return math.ldexp(2.0 - math.ldexp(1.0, 1 - self.precision), self.emax)

    @cached_property
    def min_subnormal(self) -> float:
        """Smallest positive (subnormal) value."""
        return math.ldexp(1.0, self.emin - self.precision + 1)

    # --- rounding ---------------------------------------------------------------

    def storage_clamp(self, x: float) -> float:
        """Overflow/subnormal semantics for an already-``precision``-bit value.

        The second half of the compound rounding: the input is assumed to
        carry at most ``precision`` significand bits (the ladder's
        ``workprec`` re-round or ``_round_sig`` guarantees it), so this
        step only decides overflow-to-infinity and subnormal re-rounding.
        """
        codec = self.codec
        if codec == "binary64":
            return float(x)
        if codec == "binary32":
            with np.errstate(over="ignore"):
                return float(np.float32(x))
        if codec == "binary16":
            with np.errstate(over="ignore"):
                return float(np.float16(x))
        if codec == "bfloat16":
            return _bf16_clamp(x)
        return self._generic_clamp(float(x))

    def round_float(self, x: float) -> float:
        """Round an arbitrary binary64 value into this format (compound)."""
        x = float(x)
        if self.codec == "binary64":
            return x
        if not math.isfinite(x):
            return x
        return self.storage_clamp(_round_sig_scalar(x, self.precision))

    def _generic_clamp(self, x: float) -> float:
        if x == 0.0 or not math.isfinite(x):
            return x
        exp = math.frexp(x)[1] - 1
        if exp > self.emax:
            return math.copysign(math.inf, x)
        if exp < self.emin:
            scale = self.emin - self.precision + 1
            quantum = round(math.ldexp(x, -scale))
            return math.copysign(
                math.ldexp(float(abs(quantum)), scale), x
            )
        return x

    # --- ordinal codec ----------------------------------------------------------

    def to_ordinal(self, x: float) -> int:
        """Map a value to an integer preserving numeric order.

        Non-format inputs are first rounded into the format (as the
        historical binary32 codec did via its ``np.float32`` cast).
        """
        codec = self.codec
        if codec == "binary64":
            (bits,) = struct.unpack("<q", struct.pack("<d", x))
            return bits if bits >= 0 else -(bits & _ABS64)
        if codec == "binary32":
            (bits,) = struct.unpack("<i", struct.pack("<f", np.float32(x)))
            return bits if bits >= 0 else -(bits & _ABS32)
        if codec == "binary16":
            bits = int(np.float16(self.round_float(x)).view(np.uint16))
            magnitude = bits & 0x7FFF
            return -magnitude if bits & 0x8000 else magnitude
        if codec == "bfloat16":
            (word,) = struct.unpack(
                "<I", struct.pack("<f", np.float32(self.round_float(x)))
            )
            bits = word >> 16
            magnitude = bits & 0x7FFF
            return -magnitude if bits & 0x8000 else magnitude
        return self._generic_to_ordinal(x)

    def from_ordinal(self, n: int) -> float:
        """Inverse of :meth:`to_ordinal`."""
        codec = self.codec
        if codec == "binary64":
            bits = n if n >= 0 else (-n) | (1 << 63)
            (value,) = struct.unpack("<d", struct.pack("<Q", bits & _U64))
            return value
        if codec == "binary32":
            bits = n if n >= 0 else (-n) | (1 << 31)
            (value,) = struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))
            return float(value)
        if codec == "binary16":
            bits = (n if n >= 0 else (-n) | 0x8000) & 0xFFFF
            return float(np.uint16(bits).view(np.float16))
        if codec == "bfloat16":
            bits = (n if n >= 0 else (-n) | 0x8000) & 0xFFFF
            (value,) = struct.unpack("<f", struct.pack("<I", bits << 16))
            return float(value)
        return self._generic_from_ordinal(n)

    def _generic_to_ordinal(self, x: float) -> int:
        x = self.round_float(x)
        if math.isnan(x):
            # Some NaN encoding: one past infinity, stable and symmetric.
            return self.max_ordinal + 2
        sign = -1 if math.copysign(1.0, x) < 0 else 1
        magnitude = abs(x)
        if magnitude == 0.0:
            return 0
        if math.isinf(magnitude):
            return sign * (self.max_ordinal + 1)
        exp = math.frexp(magnitude)[1] - 1
        if exp < self.emin:
            scale = self.emin - self.precision + 1
            return sign * round(math.ldexp(magnitude, -scale))
        mantissa = math.frexp(magnitude)[0]
        frac = int(math.ldexp(mantissa, self.precision)) - (
            1 << (self.precision - 1)
        )
        return sign * (
            ((exp - self.emin + 1) << (self.precision - 1)) + frac
        )

    def _generic_from_ordinal(self, n: int) -> float:
        sign = -1.0 if n < 0 else 1.0
        magnitude = abs(n)
        p1 = self.precision - 1
        expfield = magnitude >> p1
        frac = magnitude & ((1 << p1) - 1)
        if expfield == 0:
            value = math.ldexp(float(frac), self.emin - p1)
        elif expfield >= (1 << self.ebits) - 1:
            value = math.inf
        else:
            value = math.ldexp(float((1 << p1) + frac), expfield - 1 + self.emin - p1)
        return math.copysign(value, sign)

    # --- numpy vectorized storage cast ------------------------------------------

    def numpy_storage_cast(self, values: "np.ndarray") -> "np.ndarray | None":
        """Vectorized :meth:`storage_clamp` for the oracle fast path.

        Returns None when the format has no vectorized cast (generic
        custom formats) — the dd rung then stands down and every point
        takes the mpmath ladder.
        """
        codec = self.codec
        # Out-of-range values legitimately cast to inf here (that IS the
        # storage overflow semantics); numpy's warning would be noise.
        with np.errstate(over="ignore"):
            if codec == "binary64":
                return values.astype(np.float64)
            if codec == "binary32":
                return values.astype(np.float32)
            if codec == "binary16":
                return values.astype(np.float16)
            if codec == "bfloat16":
                singles = values.astype(np.float32)
                bits = singles.view(np.uint32)
                rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))) & np.uint32(0xFFFF0000)
                clamped = rounded.view(np.float32)
                return np.where(np.isnan(singles), singles, clamped)
        return None
