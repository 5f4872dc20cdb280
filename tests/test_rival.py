"""Tests for the interval oracle: enclosure soundness and correct rounding."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    fnone,
    fone,
    from_float,
    fzero,
    mpf_add,
    mpf_e,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_sin,
    mpf_sub,
)

from repro.ir import parse_expr
from repro.rival import DomainError, Interval, PrecisionExhausted, decide, evaluate
from repro.rival.interval import (
    exact,
    iadd,
    icos,
    idiv,
    iexp,
    ifabs,
    ilog,
    imul,
    ipow,
    isin,
    isqrt,
    isub,
    itan,
)

#: Working precision for the interval-operation tests (the ladder's first rung).
P = 80


def iv(lo, hi) -> Interval:
    """The interval between two numbers, both taken exactly."""
    return Interval(exact(lo), exact(hi))


class TestIntervalBasics:
    def test_point(self):
        point = Interval.point(1.5)
        assert point.is_point()
        assert point.contains(1.5)

    def test_error_flag(self):
        assert Interval.error().err

    def test_inverted_raises(self):
        with pytest.raises(ValueError):
            iv(2, 1)

    def test_contains_zero(self):
        assert iv(-1, 1).contains_zero()
        assert not iv(1, 2).contains_zero()


class TestIntervalOps:
    def test_add_encloses(self):
        out = iadd(Interval.point(0.1), Interval.point(0.2), P)
        assert out.contains(mpf_add(exact(0.1), exact(0.2)))  # exact sum of the doubles

    def test_sub_orientation(self):
        out = isub(iv(0, 1), iv(0, 1), P)
        assert mpf_le(out.lo, exact(-1 + 1e-9)) and mpf_le(exact(1 - 1e-9), out.hi)

    def test_mul_sign_cases(self):
        out = imul(iv(-2, 3), iv(-5, 1), P)
        assert out.contains(-15) and out.contains(10)

    def test_div_by_zero_interval_errs(self):
        assert idiv(Interval.point(1), iv(-1, 1), P).err

    def test_div_exact_zero_errs(self):
        assert idiv(Interval.point(1), Interval.point(0), P).err

    def test_sqrt_domain(self):
        assert isqrt(iv(-1, 1), P).err
        assert not isqrt(iv(0, 4), P).err

    def test_log_domain(self):
        assert ilog(iv(-1, 1), P).err
        assert ilog(Interval.point(0), P).err

    def test_exp_monotone(self):
        out = iexp(iv(0, 1), P)
        assert out.contains(1) and out.contains(mpf_e(P, "n"))

    def test_fabs_straddling(self):
        out = ifabs(iv(-3, 2), P)
        assert out.lo == fzero and out.contains(3)

    def test_sin_width_clamps(self):
        out = isin(iv(0, 100), P)
        assert out.lo == fnone and out.hi == fone

    def test_sin_includes_max(self):
        out = isin(iv(1, 2), P)  # contains pi/2
        assert out.hi == fone

    def test_sin_narrow(self):
        out = isin(Interval.point(0.5), P)
        assert out.contains(mpf_sin(from_float(0.5), P, "n"))
        assert mpf_lt(mpf_sub(out.hi, out.lo), exact(2.0**-60))

    def test_cos_at_zero(self):
        out = icos(Interval.point(0), P)
        assert out.contains(1)

    def test_tan_asymptote(self):
        assert itan(iv(1, 2), P).err  # pi/2 inside

    def test_pow_integer_even(self):
        out = ipow(iv(-2, 1), Interval.point(2), P)
        assert (mpf_le(out.lo, fzero) and mpf_le(fzero, mpf_add(out.lo, exact(1e-9)))
                or out.lo == fzero)
        assert out.contains(4)

    def test_pow_negative_base_noninteger_errs(self):
        assert ipow(iv(-2, -1), Interval.point(0.5), P).err


# --- hypothesis: enclosure property over random points ---------------------------------

_reasonable = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(_reasonable, _reasonable)
@settings(max_examples=60, deadline=None)
def test_interval_mul_encloses_true_product(x, y):
    out = imul(Interval.point(x), Interval.point(y), P)
    assert out.err or out.contains(mpf_mul(exact(x), exact(y)))  # the exact product


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_interval_log_exp_roundtrip_encloses(x):
    out = iexp(ilog(Interval.point(x), P), P)
    assert out.err or out.contains(x)


class TestWideIntegerLiterals:
    """Integer literals enter the ladder exactly, however many bits they
    have, so the ladder and the dd rung agree on them."""

    CASES = [
        # 10**40 has 133 significant bits; x is the double nearest it.
        ("(- x 1e40)", 1e40, 3.037860284270037e23),
        # 2**300 + 1, where x is 2**300.
        ("(- 2037035976334486086268445688409378161051468393665936250636140449354381299763336706183397377 x)",
         2.0**300, 1.0),
    ]

    @pytest.mark.parametrize("backend", ["numpy", "mpmath"])
    @pytest.mark.parametrize("text,x,expected", CASES)
    def test_value_on_both_backends(self, backend, text, x, expected):
        from repro.rival.backends import make_backend

        oracle = make_backend(backend)
        expr = parse_expr(text)
        (batched,) = oracle.eval_batch(expr, [{"x": x}])
        assert batched.ok
        for value in (evaluate(expr, {"x": x})[0], batched.value):
            assert float.hex(value) == float.hex(expected)


def _value(expr, point, ty="binary64"):
    """The ladder's correctly rounded value, without its rung."""
    return evaluate(expr, point, ty)[0]


class TestRivalEvaluator:
    """The ladder's two functions, ``evaluate`` and ``decide``."""

    def test_correct_rounding_simple(self):
        assert _value(parse_expr("(/ 1 x)"), {"x": 3.0}) == 1 / 3

    def test_correct_rounding_cancellation(self):
        # The float computation loses everything; the oracle must not.
        result = _value(parse_expr("(- (sqrt (+ x 1)) (sqrt x))"), {"x": 1e20})
        assert result == pytest.approx(5e-11, rel=1e-12)

    def test_huge_argument_trig(self):
        result = _value(parse_expr("(sin x)"), {"x": 1e10})
        assert result == pytest.approx(math.sin(1e10), abs=0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            _value(parse_expr("(log x)"), {"x": -2.0})

    def test_division_by_exact_zero(self):
        with pytest.raises(DomainError):
            _value(parse_expr("(/ 1 x)"), {"x": 0.0})

    def test_overflow_to_inf(self):
        assert _value(parse_expr("(exp x)"), {"x": 1000.0}) == math.inf

    def test_binary32_rounding(self):
        import numpy as np

        out = _value(parse_expr("(/ 1 x)"), {"x": 3.0}, ty="binary32")
        assert out == float(np.float32(1.0) / np.float32(3.0))

    def test_if_branch_selection(self):
        expr = parse_expr("(if (< x 0) (- x) x)")
        assert _value(expr, {"x": -4.0}) == 4.0
        assert _value(expr, {"x": 4.0}) == 4.0

    def test_eval_bool(self):
        assert decide(parse_expr("(and (< 0 x) (< x 1))"), {"x": 0.5})
        assert not decide(parse_expr("(< x 0)"), {"x": 0.5})

    def test_defined_at(self):
        """Defined means a finite value; undefined raises DomainError."""
        expr = parse_expr("(sqrt x)")
        assert evaluate(expr, {"x": 4.0}) == (2.0, 0)
        with pytest.raises(DomainError):
            evaluate(expr, {"x": -4.0})

    def test_rung_counts_escalation(self):
        """The rung is the index into DEFAULT_PRECISIONS that settled the
        value: 0 for an easy point, higher for heavy cancellation."""
        assert evaluate(parse_expr("(/ 1 x)"), {"x": 3.0})[1] == 0
        value, rung = evaluate(parse_expr("(- (+ x 1) x)"), {"x": 1e30})
        assert value == 1.0 and rung > 0

    def test_constants(self):
        assert _value(parse_expr("PI"), {}) == math.pi
        assert _value(parse_expr("(exp 1)"), {}) == math.e

    def test_rational_literal(self):
        assert _value(parse_expr("(+ x 1/3)"), {"x": 0.0}) == 1 / 3

    @given(st.floats(min_value=0.01, max_value=100, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_libm_within_one_ulp(self, x):
        """The oracle agrees with (correctly-rounded-ish) libm closely."""
        from repro.accuracy import ulps_between

        oracle = _value(parse_expr("(log x)"), {"x": x})
        assert ulps_between(oracle, math.log(x)) <= 1

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 'Signed zeros from the oracle': a tiny enclosure "
        "straddles zero and settles as -0.0 because -0.0 == 0.0",
    )
    def test_tiny_positive_value_rounds_to_positive_zero(self):
        """A positive true value below the smallest subnormal rounds to
        +0.0 on every backend, whatever the sign of the input."""
        from repro.rival.backends import make_backend

        cases = [
            ("(* x x)", 3.6976030963555856e-192),   # ~1.4e-383
            ("(* x x)", -3.6976030963555856e-192),
            ("(- x (sin x))", 1e-250),              # ~x**3/6
        ]
        for backend in ("numpy", "mpmath"):
            oracle = make_backend(backend)
            for text, x in cases:
                expr = parse_expr(text)
                (batched,) = oracle.eval_batch(expr, [{"x": x}])
                for value in (evaluate(expr, {"x": x})[0], batched.value):
                    assert value == 0.0, (backend, text, x)
                    assert math.copysign(1.0, value) == 1.0, (backend, text, x)
