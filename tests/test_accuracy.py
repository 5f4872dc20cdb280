"""Tests for ULP metrics, sampling, scoring, and local error."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy import (
    SampleConfig,
    SamplingError,
    bits_of_error,
    local_errors,
    sample_core,
    score_program,
    ulps_between,
)
from repro.formats import get_format
from repro.ir import F32, F64, parse_expr, parse_fpcore

_F64 = get_format(F64)
_F32 = get_format(F32)


class TestOrdinals:
    def test_order_preserving(self):
        values = [-1e300, -1.0, -1e-300, 0.0, 1e-300, 1.0, 1e300]
        ordinals = [_F64.to_ordinal(v) for v in values]
        assert ordinals == sorted(ordinals)

    def test_adjacent_floats_adjacent_ordinals(self):
        x = 1.0
        succ = math.nextafter(x, math.inf)
        assert _F64.to_ordinal(succ) - _F64.to_ordinal(x) == 1

    def test_zero(self):
        assert _F64.to_ordinal(0.0) == 0

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_f64(self, x):
        assert _F64.from_ordinal(_F64.to_ordinal(x)) == x or (
            x == 0.0  # -0.0 normalizes to +0.0
        )

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_f32(self, x):
        assert _F32.from_ordinal(_F32.to_ordinal(x)) == x or x == 0.0


class TestUlpsAndBits:
    def test_identical_is_zero(self):
        assert ulps_between(1.5, 1.5) == 0
        assert bits_of_error(1.5, 1.5) == 0.0

    def test_one_ulp(self):
        x = 1.0
        assert ulps_between(x, math.nextafter(x, 2.0)) == 1
        assert bits_of_error(x, math.nextafter(x, 2.0)) == 1.0

    def test_nan_vs_value_is_worst(self):
        assert bits_of_error(math.nan, 1.0) == 64.0

    def test_nan_vs_nan_is_perfect(self):
        assert bits_of_error(math.nan, math.nan) == 0.0

    def test_sign_straddling(self):
        assert ulps_between(-1e-300, 1e-300) > 0

    def test_f32_scale(self):
        assert bits_of_error(math.nan, 1.0, F32) == 32.0

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert ulps_between(a, b) == ulps_between(b, a)

    def test_monotone_in_distance(self):
        exact = 1.0
        worse = [1.0, 1.0 + 2**-50, 1.0 + 2**-40, 1.0 + 2**-20, 2.0]
        errors = [bits_of_error(w, exact) for w in worse]
        assert errors == sorted(errors)


class TestSampler:
    def test_respects_precondition(self, acoth_core):
        samples = sample_core(acoth_core, SampleConfig(n_train=16, n_test=16))
        for point in samples.train + samples.test:
            assert 0.001 < abs(point["x"]) < 0.999

    def test_exact_values_align(self, sqrt_sub_core):
        samples = sample_core(sqrt_sub_core, SampleConfig(n_train=8, n_test=8))
        assert len(samples.train) == len(samples.train_exact)
        assert all(math.isfinite(v) for v in samples.train_exact)

    def test_deterministic(self, sqrt_sub_core):
        a = sample_core(sqrt_sub_core, SampleConfig(n_train=8, n_test=8, seed=3))
        b = sample_core(sqrt_sub_core, SampleConfig(n_train=8, n_test=8, seed=3))
        assert a.train == b.train

    def test_different_seeds_differ(self, sqrt_sub_core):
        a = sample_core(sqrt_sub_core, SampleConfig(n_train=8, n_test=8, seed=3))
        b = sample_core(sqrt_sub_core, SampleConfig(n_train=8, n_test=8, seed=4))
        assert a.train != b.train

    def test_impossible_precondition_raises(self):
        core = parse_fpcore("(FPCore (x) :pre (and (< 1 x) (< x 0)) (sqrt x))")
        with pytest.raises(SamplingError):
            sample_core(core, SampleConfig(n_train=8, n_test=8, max_batches=3))

    def test_domain_filtering(self):
        # sqrt of negatives must never be sampled even without precondition
        core = parse_fpcore("(FPCore (x) (sqrt x))")
        samples = sample_core(core, SampleConfig(n_train=16, n_test=16))
        assert all(p["x"] >= 0 for p in samples.train + samples.test)


class TestScoring:
    def test_exact_program_scores_near_zero(self, c99, sqrt_sub_core, small_samples):
        from repro.core import transcribe

        program = transcribe(sqrt_sub_core.body, c99, F64)
        # naive form: accurate on most points but catastrophic on large x
        score = score_program(
            program, c99, small_samples.test, small_samples.test_exact
        )
        assert 0 <= score <= 64

    def test_rewritten_beats_naive(self, c99, sqrt_sub_core, small_samples):
        from repro.core import transcribe
        from repro.ir import parse_expr as pe

        naive = transcribe(sqrt_sub_core.body, c99, F64)
        repaired = transcribe(
            pe("(/ 1 (+ (sqrt (+ x 1)) (sqrt x)))"), c99, F64
        )
        naive_score = score_program(
            naive, c99, small_samples.test, small_samples.test_exact
        )
        repaired_score = score_program(
            repaired, c99, small_samples.test, small_samples.test_exact
        )
        assert repaired_score <= naive_score

    def test_unsupported_program_scores_worst(self, arith, small_samples):
        program = parse_expr("(exp.f64 x)", known_ops={"exp.f64"})
        score = score_program(
            program, arith, small_samples.test, small_samples.test_exact
        )
        assert score == 64.0


class TestLocalError:
    def test_blames_the_cancelling_subtraction(self, c99, sqrt_sub_core):
        """Herbie's flagship example: the subtraction introduces the error,
        not the square roots."""
        from repro.core import transcribe

        program = transcribe(sqrt_sub_core.body, c99, F64)
        # Large x: cancellation is severe there.
        points = [{"x": 1e18}, {"x": 4e17}, {"x": 7e16}]
        errors = local_errors(program, c99, points)
        root_error = errors[()]
        sqrt_errors = [v for path, v in errors.items() if path != ()]
        assert root_error > 20
        assert all(v < 2 for v in sqrt_errors)

    def test_accurate_program_has_low_local_error(self, c99):
        program = parse_expr(
            "(div.f64 1 (add.f64 (sqrt.f64 (add.f64 x 1)) (sqrt.f64 x)))",
            known_ops=set(c99.operators),
        )
        errors = local_errors(program, c99, [{"x": 1e18}, {"x": 2.0}])
        assert all(v < 2 for v in errors.values())

    def test_approximate_operator_shows_its_error(self, vdt):
        program = parse_expr("(fast_exp.f64 x)", known_ops=set(vdt.operators))
        errors = local_errors(program, vdt, [{"x": 1.1}, {"x": 2.3}])
        assert errors[()] > 0.5  # ~8 ulp of deliberate error
