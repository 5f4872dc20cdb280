"""Tests for the double-double rung (:mod:`repro.rival.backends.dd`).

Three layers of pinning, mirroring the rung's own soundness argument:

* the error-free transforms really are error-free (checked against exact
  rational arithmetic over specials, denormals and signed zeros);
* the dd transcendental kernels stay inside their declared margins
  (checked against mpmath at 200 bits on randomized points);
* the rung keeps the acceptance-filter contract end to end — sampled
  points and exact values are bit-identical across the ``numpy`` and
  ``mpmath`` backends, because dd only ever settles points whose
  enclosure already rounds uniquely.
"""

import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from repro.accuracy.sampler import SampleConfig, sample_core
from repro.benchsuite.suite import core_named
from repro.ir.parser import parse_expr
from repro.ir.types import F32, F64
from repro.rival.backends import make_backend
from repro.rival.backends.dd import (
    DoubleDoubleRung,
    dd_add,
    dd_cos,
    dd_exp,
    dd_expm1,
    dd_log,
    dd_mul,
    dd_sin,
    round_dd_to_f64,
    split,
    two_prod,
    two_sum,
)

#: Finite specials: signed zeros, denormals, powers straddling the
#: binade structure, and the format's extremes.
SPECIALS = (
    0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-300, -1e-300, 1e300,
    1.5, -0.1, 3.141592653589793, 123456789.0,
)


def _bits(value):
    return struct.pack("<d", value)


class TestErrorFreeTransforms:
    def test_two_sum_exact_over_specials(self):
        for a in SPECIALS:
            for b in SPECIALS:
                hi, lo = two_sum(np.float64(a), np.float64(b))
                assert float(hi) == a + b
                # The pair represents a + b *exactly* as a rational.
                assert Fraction(float(hi)) + Fraction(float(lo)) == (
                    Fraction(a) + Fraction(b)
                )

    def test_two_prod_exact_over_specials(self):
        for a in SPECIALS:
            for b in SPECIALS:
                product = Fraction(a) * Fraction(b)
                hi, lo = two_prod(np.float64(a), np.float64(b))
                if not (math.isfinite(hi) and math.isfinite(lo)):
                    continue  # overflow in split/product: rung escalates
                got = Fraction(float(hi)) + Fraction(float(lo))
                if got == product:
                    continue
                # Denormal products lose the low limb to underflow; the
                # residual must stay under the rung's absolute floor.
                assert abs(float(got - product)) < 2.0 ** -1070

    def test_split_is_exact_and_flags_overflow(self):
        for a in (1.0, 1.5, 1e300 / 2**30, 5e-324, -7.25):
            hi, lo = split(np.float64(a))
            assert float(hi) + float(lo) == a
        hi, lo = split(np.float64(1e308))
        assert not math.isfinite(float(hi) + float(lo))

    def test_dd_add_mul_random_vs_fraction(self):
        rng = random.Random(5)
        for _ in range(200):
            a = rng.uniform(-1, 1) * 2.0 ** rng.uniform(-40, 40)
            b = rng.uniform(-1, 1) * 2.0 ** rng.uniform(-40, 40)
            s = dd_add((np.float64(a), np.float64(0)),
                       (np.float64(b), np.float64(0)))
            exact = Fraction(a) + Fraction(b)
            got = Fraction(float(s[0])) + Fraction(float(s[1]))
            if exact != 0:
                assert abs((got - exact) / exact) < Fraction(1, 2**100)
            p = dd_mul((np.float64(a), np.float64(0)),
                       (np.float64(b), np.float64(0)))
            exact = Fraction(a) * Fraction(b)
            got = Fraction(float(p[0])) + Fraction(float(p[1]))
            if exact != 0:
                assert abs((got - exact) / exact) < Fraction(1, 2**100)


class TestKernelAccuracy:
    """dd kernels vs mpmath at 200 bits: relative error must stay well
    inside the margins the interval layer widens by."""

    def _check(self, kernel, mp_fn, xs, rel_bound):
        import mpmath

        hi, lo = kernel((np.asarray(xs), np.zeros(len(xs))))
        if isinstance(hi, tuple):  # trig kernels return (value, bad, margin)
            (hi, lo) = hi
        with mpmath.mp.workprec(200):
            for x, h, l in zip(xs, np.atleast_1d(hi), np.atleast_1d(lo)):
                truth = mp_fn(mpmath.mpf(x))
                got = mpmath.mpf(float(h)) + mpmath.mpf(float(l))
                if truth == 0:
                    continue
                # Margin model: relative bound plus the 2**-1070 absolute
                # floor (ldexp quantizes the lo limb near the subnormal
                # boundary; the interval layer widens by _TINY for this).
                err = abs(got - truth)
                assert err < rel_bound * abs(truth) + mpmath.mpf(2) ** -1070, (
                    x, float(err / abs(truth))
                )

    def test_exp_within_margin(self):
        rng = random.Random(17)
        xs = [rng.uniform(-700, 700) for _ in range(300)]
        self._check(dd_exp, __import__("mpmath").exp, xs, 2.0 ** -92)

    def test_log_within_margin(self):
        import mpmath

        rng = random.Random(19)
        xs = [rng.uniform(0, 1) * 2.0 ** rng.uniform(-900, 900)
              for _ in range(300)]
        self._check(dd_log, mpmath.log, [x for x in xs if x > 0], 2.0 ** -88)

    def test_expm1_tiny_arguments_full_precision(self):
        import mpmath

        xs = [2.0 ** -e for e in range(1, 50)]
        self._check(dd_expm1, mpmath.expm1, xs, 2.0 ** -88)

    def test_exp_out_of_range_poisons(self):
        hi, lo = dd_exp((np.asarray([1000.0, -1000.0]), np.zeros(2)))
        assert not np.isfinite(hi).any() or not np.isfinite(lo).any()

    def test_sin_cos_within_margin(self):
        import mpmath

        rng = random.Random(23)
        xs = [rng.uniform(-1, 1) * 2.0 ** rng.uniform(-30, 40)
              for _ in range(300)]
        arr = (np.asarray(xs), np.zeros(len(xs)))
        for kernel, mp_fn in ((dd_sin, mpmath.sin), (dd_cos, mpmath.cos)):
            value, bad, margin = kernel(arr)
            with mpmath.mp.workprec(200):
                for i, x in enumerate(xs):
                    if bad[i]:
                        continue
                    truth = mp_fn(mpmath.mpf(x))
                    got = (mpmath.mpf(float(value[0][i]))
                           + mpmath.mpf(float(value[1][i])))
                    assert abs(got - truth) <= float(margin[i]) + 2.0 ** -1070


class TestRoundingRefusal:
    def test_unique_rounding_accepted(self):
        rounded, escalate = round_dd_to_f64(
            np.asarray([1.0]), np.asarray([1e-30])
        )
        assert rounded[0] == 1.0 and not escalate[0]

    def test_tie_escalates(self):
        # hi + lo exactly halfway between 1.0 and nextafter(1.0): the
        # rung cannot know which way the ladder's compound rounding
        # breaks the tie, so it must refuse to round.
        half_gap = (math.nextafter(1.0, 2.0) - 1.0) / 2
        rounded, escalate = round_dd_to_f64(
            np.asarray([1.0]), np.asarray([half_gap])
        )
        assert escalate[0]


class TestCascade:
    def test_dd_settles_cos_frac_residue(self):
        rung = DoubleDoubleRung()
        body = parse_expr("(/ (- 1 (cos x)) (* x x))")
        points = [{"x": 2.0 ** -e} for e in range(1, 40)]
        results = rung.evaluate(body, points, F64)
        assert results is not None
        settled = [r for r in results if r is not None]
        assert len(settled) == len(points)
        for r in settled:
            assert r.status == "ok" and 0.48 < r.value <= 0.5

    @pytest.mark.parametrize("fmt", [F32, "fp16", "bf16"])
    def test_dd_settles_narrow_formats(self, fmt):
        rng = random.Random(37)
        body = parse_expr("(- (sqrt (+ x 1)) (sqrt x))")
        points = [{"x": rng.uniform(0.1, 100.0)} for _ in range(64)]
        results = DoubleDoubleRung().evaluate(body, points, fmt)
        assert results is not None
        settled = [(i, r) for i, r in enumerate(results) if r is not None]
        assert len(settled) >= 60
        ref = make_backend("mpmath").eval_batch(
            body, [points[i] for i, _ in settled], fmt
        )
        for (_, got), want in zip(settled, ref):
            assert got.status == want.status
            assert _bits(got.value) == _bits(want.value)

    @pytest.mark.parametrize("fmt, bits", [(F32, 24), ("fp16", 11), ("bf16", 8)])
    def test_narrow_rounding_boundary_matches_ladder(self, fmt, bits):
        # x is a rounding midpoint of the target format (halfway between
        # two p-bit values, even and odd neighbours both ways), so the
        # correctly rounded x + y goes the way of y's sign.  The dd hi
        # limb is x itself: rounding it alone would round half-even.
        body = parse_expr("(+ x y)")
        points = []
        for k in (1, 3):
            for scale in (1.0, 2.0 ** -5, 2.0 ** 7):
                for sign in (1.0, -1.0):
                    x = sign * scale * (1.0 + k * 2.0 ** -bits)
                    for direction in (1.0, -1.0):
                        points.append({"x": x, "y": direction * 2.0 ** -60 * x})
        got = make_backend("numpy").eval_batch(body, points, fmt)
        want = make_backend("mpmath").eval_batch(body, points, fmt)
        assert [(r.status, _bits(r.value)) for r in got] == [
            (r.status, _bits(r.value)) for r in want
        ]

    def test_numpy_backend_counts_dd_hits(self):
        backend = make_backend("numpy")
        body = parse_expr("(/ (- 1 (cos x)) (* x x))")
        points = [{"x": 2.0 ** -e} for e in range(1, 40)]
        backend.eval_batch(body, points, F64)
        counters = backend.counters()
        assert counters.dd_hits > 0
        assert counters.dd_hits <= counters.fastpath_hits
        assert (counters.fastpath_hits + counters.escalated_points
                == counters.batch_points)

    def test_dd_settled_values_match_ladder(self):
        rng = random.Random(31)
        body = parse_expr("(- (exp x) 1)")
        points = [
            {"x": rng.uniform(-1, 1) * 2.0 ** rng.uniform(-40, 9)}
            for _ in range(100)
        ]
        rung = DoubleDoubleRung()
        results = rung.evaluate(body, points, F64)
        ladder = make_backend("mpmath")
        settled = [(i, r) for i, r in enumerate(results) if r is not None]
        assert settled
        ref = ladder.eval_batch(body, [points[i] for i, _ in settled], F64)
        for (_, got), want in zip(settled, ref):
            assert got.status == want.status
            assert _bits(got.value) == _bits(want.value)


def _sample_key(samples):
    points = tuple(
        tuple(sorted((k, _bits(v)) for k, v in point.items()))
        for point in samples.train + samples.test
    )
    exacts = tuple(_bits(v) for v in samples.train_exact + samples.test_exact)
    return (points, exacts, samples.acceptance, len(samples.train))


class TestEndToEndIdentity:
    """Sampling through the dd rung must be bit-identical to the mpmath
    ladder."""

    @pytest.mark.parametrize("name", ["cos-frac", "expm1-naive"])
    def test_backends_bit_identical(self, name):
        core = core_named(name)
        config = SampleConfig(n_train=16, n_test=16)
        want = _sample_key(sample_core(core, config, oracle=make_backend("mpmath")))
        assert _sample_key(
            sample_core(core, config, oracle=make_backend("numpy"))
        ) == want
