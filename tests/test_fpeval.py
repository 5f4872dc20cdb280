"""Tests for float operator implementations and the evaluation machine."""

import itertools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpeval import approx, impls, to_f32
from repro.fpeval.machine import UnsupportedOperator, compile_condition, compile_expr
from repro.ir import F32, F64, parse_expr

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100)


class TestBasicImpls:
    def test_div_by_zero_semantics(self):
        assert impls.div64(1.0, 0.0) == math.inf
        assert impls.div64(-1.0, 0.0) == -math.inf
        assert math.isnan(impls.div64(0.0, 0.0))

    def test_total_wrapping(self):
        assert math.isnan(impls.sqrt64(-1.0))
        assert math.isnan(impls.log64(-1.0))
        assert impls.exp64(1e9) == math.inf

    def test_fmin_fmax_nan_handling(self):
        assert impls.fmin64(math.nan, 3.0) == 3.0
        assert impls.fmax64(2.0, math.nan) == 2.0

    def test_pow_edge_cases(self):
        assert impls.pow64(2.0, 10.0) == 1024.0
        assert math.isnan(impls.pow64(-2.0, 0.5))


class TestFMA:
    def test_fused_rounding_differs_from_separate(self):
        # Classic fma witness: a*b + c where a*b rounds away information.
        a = 1.0 + 2.0**-52
        b = 1.0 + 2.0**-52
        c = -(1.0 + 2.0**-51)
        fused = impls.fma64(a, b, c)
        separate = a * b + c
        assert fused != separate  # fma keeps the 2^-104 term
        assert fused == 2.0**-104

    def test_variants_consistent(self):
        assert impls.fms64(3.0, 4.0, 5.0) == 7.0
        assert impls.fnma64(3.0, 4.0, 5.0) == -7.0
        assert impls.fnms64(3.0, 4.0, 5.0) == -17.0

    @given(finite, finite, finite)
    @settings(max_examples=50, deadline=None)
    def test_fma_correctly_rounded(self, a, b, c):
        fused = impls.fma64(a, b, c)
        exact = Fraction(a) * Fraction(b) + Fraction(c)
        try:
            expected = float(exact)
        except OverflowError:
            expected = math.inf if exact > 0 else -math.inf
        assert fused == expected

    def test_infinity_passthrough(self):
        assert impls.fma64(math.inf, 1.0, 0.0) == math.inf

    def test_overflow_returns_signed_infinity(self):
        assert impls.fma64(1e200, 1e200, 0.0) == math.inf
        assert impls.fma64(-1e200, 1e200, 0.0) == -math.inf
        assert impls.fms64(1e200, -1e200, 1.0) == -math.inf
        assert impls.fnma64(1e200, -1e200, 0.0) == math.inf
        assert impls.fma32(to_f32(1e38), 10.0, 0.0) == math.inf

    @pytest.mark.parametrize("variant", ["fma", "fms", "fnma", "fnms"])
    def test_variants_match_the_rational_reference(self, variant):
        """Every variant, in binary64 and binary32, rounds the exact
        rational result once (binary32 rounds that double once more), bit
        for bit, over signed zeros, subnormals, huge values and overflow."""
        signs = {"fma": (1, 1), "fms": (1, -1), "fnma": (-1, 1), "fnms": (-1, -1)}
        sa, sc = signs[variant]
        op64 = getattr(impls, f"{variant}64")
        op32 = getattr(impls, f"{variant}32")
        for a, b, c in itertools.product(FMA_EDGES_64, repeat=3):
            want = _fma_reference(sa * a, b, sc * c)
            assert _bits(op64(a, b, c)) == _bits(want), (variant, a, b, c)
        for a, b, c in itertools.product(FMA_EDGES_32, repeat=3):
            want = to_f32(_fma_reference(sa * a, b, sc * c))
            assert _bits(op32(a, b, c)) == _bits(want), (variant, a, b, c)


#: Signed zeros, subnormals, ordinary, huge and overflowing magnitudes.
FMA_EDGES_64 = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310,
    1e-200, 0.1, -1.0, 3.0, 1e200, -1.7976931348623157e308,
)
#: The same kinds of value, all binary32-representable.
FMA_EDGES_32 = tuple(map(to_f32, (
    0.0, -0.0, 1.401298464324817e-45, -1.1754943508222875e-38, 1e-30,
    0.1, -1.0, 3.0, 1e19, -3.4028234663852886e38,
)))


def _fma_reference(a: float, b: float, c: float) -> float:
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_LIBM_DEFECT = (
    "ROADMAP 'Native operators disagree with libm': impls._total maps every "
    "ValueError to NaN and every OverflowError to +inf"
)


class TestLibmAgreement:
    """Where C libm's answer is a signed infinity or a float, the native
    operators must give the same; these pin the known defects."""

    @pytest.mark.xfail(strict=True, reason=_LIBM_DEFECT)
    def test_pole_errors_return_signed_infinity(self):
        assert impls.log64(0.0) == -math.inf
        assert impls.log1p64(-1.0) == -math.inf
        assert impls.log264(-0.0) == -math.inf
        assert impls.log1064(0.0) == -math.inf
        assert impls.atanh64(1.0) == math.inf
        assert impls.atanh64(-1.0) == -math.inf

    @pytest.mark.xfail(strict=True, reason=_LIBM_DEFECT)
    def test_overflow_keeps_its_sign(self):
        assert impls.sinh64(-1000.0) == -math.inf
        assert impls.floor64(-math.inf) == -math.inf
        assert impls.ceil64(-math.inf) == -math.inf
        assert impls.trunc64(-math.inf) == -math.inf
        assert impls.pow64(-10.0, 309.0) == -math.inf
        assert impls.pow64(-10.0, 310.0) == math.inf

    @pytest.mark.xfail(strict=True, reason=_LIBM_DEFECT)
    def test_rounding_operators_return_floats(self):
        for op in (impls.floor64, impls.ceil64, impls.trunc64):
            assert type(op(-2.5)) is float

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 'Native operators disagree with libm': fma64 rounds "
        "an exact zero to +0.0 whatever the signs",
    )
    def test_fma_of_negative_zeros_is_negative_zero(self):
        assert math.copysign(1.0, impls.fma64(-0.0, 1.0, -0.0)) == -1.0


class TestF32:
    def test_rounds(self):
        assert to_f32(0.1) != 0.1
        assert to_f32(0.1) == float(np.float32(0.1))

    def test_add32(self):
        out = impls.add32(to_f32(0.1), to_f32(0.2))
        assert out == float(np.float32(np.float32(0.1) + np.float32(0.2)))

    def test_casts(self):
        assert impls.cast_to_f64(to_f32(1.5)) == 1.5
        assert impls.cast_to_f32(1.0 + 2.0**-40) == 1.0


class TestApproxOps:
    def test_rcp_close_but_not_exact(self):
        out = approx.rcp32(3.0)
        assert out != to_f32(1.0 / 3.0)
        assert abs(out - 1.0 / 3.0) / (1.0 / 3.0) < 2.0**-10

    def test_rcp_error_bound(self):
        # rcpps guarantees |rel err| <= 1.5 * 2^-12.
        for x in (0.7, 1.3, 2.9, 17.0, 123.456, 1e-3, 1e6):
            rel = abs(approx.rcp32(x) - 1.0 / x) * x
            assert rel < 1.5 * 2.0**-11  # keep a 2x margin over the spec

    def test_rsqrt(self):
        out = approx.rsqrt32(4.0)
        assert abs(out - 0.5) < 0.001
        assert math.isnan(approx.rsqrt32(-1.0))
        assert approx.rsqrt32(0.0) == math.inf

    def test_vdt_fast_error_is_small_but_nonzero(self):
        from repro.accuracy import ulps_between

        exact = math.exp(1.234)
        fast = approx.fast_exp64(1.234)
        assert 0 < ulps_between(fast, exact) <= 64

    def test_vdt_appr_isqrt_cruder_than_fast(self):
        from repro.accuracy import bits_of_error

        exact = 1.0 / math.sqrt(1.7)
        fast_err = bits_of_error(approx.fast_isqrt64(1.7), exact)
        appr_err = bits_of_error(approx.appr_isqrt64(1.7), exact)
        assert appr_err > fast_err

    def test_deterministic(self):
        assert approx.fast_sin64(0.5) == approx.fast_sin64(0.5)


class TestMachine:
    def test_compile_and_eval(self, c99):
        prog = parse_expr("(add.f64 x (mul.f64 y y))", known_ops=set(c99.operators))
        fn = compile_expr(prog, c99.impl_registry())
        assert fn({"x": 1.0, "y": 3.0}) == 10.0

    def test_literal_rounded_to_format(self, c99):
        prog = parse_expr("(add.f32 x 0.1)", known_ops=set(c99.operators))
        fn = compile_expr(prog, c99.impl_registry(), F32)
        assert fn({"x": 0.0}) == to_f32(0.1)

    def test_unsupported_op_raises(self, c99):
        prog = parse_expr("(frob x)", known_ops={"frob"})
        with pytest.raises(UnsupportedOperator):
            compile_expr(prog, c99.impl_registry())

    def test_if_evaluation(self, c99):
        prog = parse_expr(
            "(if (< x 0) (neg.f64 x) x)", known_ops=set(c99.operators)
        )
        fn = compile_expr(prog, c99.impl_registry())
        assert fn({"x": -2.0}) == 2.0
        assert fn({"x": 2.0}) == 2.0

    def test_condition_compile(self, c99):
        cond = compile_condition(
            parse_expr("(and (< 0 x) (< x 1))"), c99.impl_registry()
        )
        assert cond({"x": 0.5})
        assert not cond({"x": 2.0})

    def test_constants(self, c99):
        prog = parse_expr("(mul.f64 PI x)", known_ops=set(c99.operators))
        fn = compile_expr(prog, c99.impl_registry())
        assert fn({"x": 2.0}) == 2 * math.pi

    def test_nan_propagates_not_raises(self, c99):
        prog = parse_expr("(log.f64 x)", known_ops=set(c99.operators))
        fn = compile_expr(prog, c99.impl_registry())
        assert math.isnan(fn({"x": -1.0}))
