"""Number-format layer tests: ordinal codecs, registry, rounding.

The codec properties are parameterized over the *registry* — every format
registered now or later is covered automatically (satellite: property
tests for every registered format's ordinal codec).
"""

import math
import struct

import numpy as np
import pytest

from repro.accuracy.ulp import ulps_between
from repro.formats import (
    FloatFormat,
    UnknownFormatError,
    get_format,
    register_format,
    registered_formats,
)
from repro.formats.registry import _register_env_formats

ALL_FORMATS = registered_formats()
FORMAT_IDS = [fmt.name for fmt in ALL_FORMATS]


def _same_float(a: float, b: float) -> bool:
    """Bitwise float equality: NaN==NaN, and -0.0 != +0.0."""
    return struct.pack("<d", a) == struct.pack("<d", b)


def _probe_ordinals(fmt: FloatFormat) -> list[int]:
    """Ordinals spanning every regime: zeros, denormals, normals, extremes,
    infinities — positive and negative."""
    edges = {
        0,
        1,  # smallest positive denormal
        2,
        fmt.max_ordinal // 3,
        fmt.max_ordinal // 2,
        fmt.max_ordinal - 1,
        fmt.max_ordinal,  # largest finite
        fmt.max_ordinal + 1,  # +inf
        1 << (fmt.precision - 1),  # first normal boundary neighborhood
        (1 << (fmt.precision - 1)) - 1,  # largest denormal
    }
    # A deterministic spread across the whole range.
    step = max(1, (fmt.max_ordinal + 1) // 257)
    edges.update(range(0, fmt.max_ordinal + 1, step))
    return sorted({o for e in edges for o in (e, -e)})


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FORMAT_IDS)
def test_ordinal_round_trip_identity(fmt):
    for ordinal in _probe_ordinals(fmt):
        value = fmt.from_ordinal(ordinal)
        assert fmt.to_ordinal(value) == ordinal, (
            f"{fmt.name}: ordinal {ordinal} -> {value!r} does not round-trip"
        )


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FORMAT_IDS)
def test_value_round_trip_identity(fmt):
    for ordinal in _probe_ordinals(fmt):
        value = fmt.from_ordinal(ordinal)
        again = fmt.from_ordinal(fmt.to_ordinal(value))
        assert _same_float(value, again)


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FORMAT_IDS)
def test_ordinal_order_preservation(fmt):
    """Strictly increasing ordinals map to strictly increasing values,
    across -inf, denormals, ±0, and +inf (the zeros collapse: ordinal 0 is
    +0.0 and there is no -0.0 ordinal — sign-magnitude maps -0.0 to 0)."""
    ordinals = _probe_ordinals(fmt)
    values = [fmt.from_ordinal(o) for o in ordinals]
    for (o1, v1), (o2, v2) in zip(
        zip(ordinals, values), zip(ordinals[1:], values[1:])
    ):
        assert v1 < v2, f"{fmt.name}: {o1}->{v1!r} not < {o2}->{v2!r}"


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FORMAT_IDS)
def test_ordinal_boundary_values(fmt):
    assert fmt.from_ordinal(0) == 0.0
    assert fmt.from_ordinal(fmt.max_ordinal) == fmt.max_value
    assert fmt.from_ordinal(fmt.max_ordinal + 1) == math.inf
    assert fmt.from_ordinal(-(fmt.max_ordinal + 1)) == -math.inf
    assert fmt.from_ordinal(1) == fmt.min_subnormal
    # -0.0 canonicalizes onto ordinal 0 (sign-magnitude, |−0| bits are 0).
    assert fmt.to_ordinal(-0.0) == 0


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FORMAT_IDS)
def test_ulps_between_symmetry_and_nan(fmt):
    samples = [fmt.from_ordinal(o) for o in _probe_ordinals(fmt)]
    probes = samples[:: max(1, len(samples) // 24)]
    for a in probes:
        for b in probes:
            assert ulps_between(a, b, fmt.name) == ulps_between(b, a, fmt.name)
    # NaN against any non-NaN is the worst case, 1 << bits; NaN vs NaN is 0.
    worst = 1 << fmt.bits
    assert ulps_between(math.nan, 1.0, fmt.name) == worst
    assert ulps_between(1.0, math.nan, fmt.name) == worst
    assert ulps_between(math.nan, math.nan, fmt.name) == 0
    # Adjacent ordinals are exactly one ulp apart.
    assert ulps_between(fmt.from_ordinal(3), fmt.from_ordinal(4), fmt.name) == 1


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FORMAT_IDS)
def test_round_float_idempotent_and_clamping(fmt):
    for ordinal in _probe_ordinals(fmt):
        value = fmt.from_ordinal(ordinal)
        assert _same_float(fmt.round_float(value), value)
        assert _same_float(fmt.storage_clamp(value), value)
    # Rounding the midpoint beyond the largest finite value overflows.
    assert fmt.round_float(fmt.max_value * 1.001) in (fmt.max_value, math.inf)
    assert fmt.round_float(math.inf) == math.inf
    assert math.isnan(fmt.round_float(math.nan))


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FORMAT_IDS)
def test_numpy_storage_cast_matches_scalar_clamp(fmt):
    values = np.array(
        [fmt.from_ordinal(o) for o in _probe_ordinals(fmt)]
        + [math.nan, 1.0 + 1e-9, -math.pi, 1e300, -1e300],
        dtype=np.float64,
    )
    cast = fmt.numpy_storage_cast(values)
    if cast is None:  # generic formats have no vectorized cast
        return
    for raw, vec in zip(values.tolist(), np.asarray(cast, dtype=np.float64).tolist()):
        assert _same_float(vec, fmt.storage_clamp(raw))


def test_known_format_geometry():
    fp16 = get_format("fp16")
    assert (fp16.bits, fp16.precision, fp16.emin, fp16.emax) == (16, 11, -14, 15)
    assert fp16.max_ordinal == 0x7BFF
    assert fp16.max_value == 65504.0
    bf16 = get_format("bf16")
    assert (bf16.bits, bf16.precision, bf16.emin, bf16.emax) == (16, 8, -126, 127)
    assert bf16.max_ordinal == 0x7F7F
    assert get_format("binary64").max_ordinal == 0x7FEFFFFFFFFFFFFF
    assert get_format("binary32").max_ordinal == 0x7F7FFFFF


def test_registry_aliases_resolve():
    assert get_format("f64") is get_format("binary64")
    assert get_format("double") is get_format("binary64")
    assert get_format("f32") is get_format("binary32")
    assert get_format("half") is get_format("fp16")
    assert get_format("binary16") is get_format("fp16")
    assert get_format("bfloat16") is get_format("bf16")
    fmt = get_format("fp16")
    assert get_format(fmt) is fmt  # passthrough


def test_unknown_format_error_lists_registered():
    with pytest.raises(UnknownFormatError) as err:
        get_format("binary128")
    message = str(err.value)
    assert "binary128" in message
    for name in FORMAT_IDS:
        assert name in message


def test_register_custom_format():
    custom = FloatFormat(
        name="test-tf32", bits=19, precision=11, emin=-126, emax=127,
        suffix="tf32t",
    )
    register_format(custom, replace=True)
    try:
        assert get_format("test-tf32") is custom
        assert custom in registered_formats()
        # The generic codec is live immediately: round-trip a few ordinals.
        for o in (0, 1, custom.max_ordinal, custom.max_ordinal + 1, -5):
            assert custom.to_ordinal(custom.from_ordinal(o)) == o
    finally:
        from repro.formats import registry

        with registry._LOCK:
            registry._FORMATS.pop("test-tf32", None)
            registry._NAMES.pop("test-tf32", None)


def test_env_format_registration():
    _register_env_formats("envfmt=20:13:-62:63")
    try:
        fmt = get_format("envfmt")
        assert (fmt.bits, fmt.precision, fmt.emin, fmt.emax) == (20, 13, -62, 63)
        assert fmt.to_ordinal(fmt.from_ordinal(fmt.max_ordinal)) == fmt.max_ordinal
    finally:
        from repro.formats import registry

        with registry._LOCK:
            registry._FORMATS.pop("envfmt", None)
            registry._NAMES.pop("envfmt", None)


def test_bf16_rounds_half_even():
    bf16 = get_format("bf16")
    # 1 + 2^-9 is exactly between 1 and 1+2^-7 (one bf16 ulp at 1): ties to even.
    assert bf16.round_float(1.0 + 2.0**-9) == 1.0
    assert bf16.round_float(1.0 + 3.0 * 2.0**-9) == 1.0 + 2.0**-7
    assert bf16.round_float(-0.0) == 0.0 and math.copysign(1, bf16.round_float(-0.0)) == -1.0


def test_fp16_overflow_threshold():
    fp16 = get_format("fp16")
    assert fp16.round_float(65519.0) == 65504.0  # below the rounding midpoint
    assert fp16.round_float(65520.0) == math.inf  # at the midpoint: overflows
