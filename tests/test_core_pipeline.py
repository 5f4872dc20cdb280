"""Tests for isel, series, regimes, the loop, and full compilation."""

import math

import pytest

from repro.accuracy import SampleConfig, sample_core
from repro.core import (
    CompileConfig,
    compile_core,
    infer_regimes,
    instruction_select,
    series_candidates,
    taylor_coeffs,
    transcribe,
)
from repro.core.candidates import Candidate
from repro.ir import F32, F64, expr_to_sexpr, parse_expr, parse_fpcore

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=15)
SMALL = SampleConfig(n_train=16, n_test=16)


class TestInstructionSelection:
    def test_rcp_variant_found(self, avx):
        prog = parse_expr("(div.f32 x y)", known_ops=set(avx.operators))
        variants = instruction_select(prog, avx, ty=F32)
        assert any("rcp.f32" in str(v) for v in variants)

    def test_fma_fusion_found(self, avx):
        prog = parse_expr(
            "(add.f64 (mul.f64 a b) c)", known_ops=set(avx.operators)
        )
        variants = instruction_select(prog, avx, ty=F64)
        assert any(v.op == "fma.f64" for v in variants)

    def test_log1pmd_found(self, fdlibm):
        prog = parse_expr("(* 1/2 (log (/ (+ 1 x) (- 1 x))))")
        variants = instruction_select(prog, fdlibm, ty=F64)
        assert any("log1pmd.f64" in str(v) for v in variants)

    def test_all_variants_well_typed(self, avx):
        from repro.cost import TargetCostModel

        prog = parse_expr("(div.f32 x y)", known_ops=set(avx.operators))
        model = TargetCostModel(avx)
        for variant in instruction_select(prog, avx, ty=F32):
            assert model.supports_program(variant)

    def test_accepts_real_input(self, c99):
        variants = instruction_select(parse_expr("(/ 1 x)"), c99, ty=F64)
        assert variants  # lowering real exprs directly also works


class TestSeries:
    def test_taylor_of_exp(self):
        coeffs = taylor_coeffs(parse_expr("(exp x)"), "x", 0.0, 3)
        assert coeffs is not None
        assert float(coeffs[0]) == pytest.approx(1.0)
        assert float(coeffs[1]) == pytest.approx(1.0)
        assert float(coeffs[2]) == pytest.approx(0.5)

    def test_singular_returns_none(self):
        assert taylor_coeffs(parse_expr("(/ 1 x)"), "x", 0.0, 3) is None

    def test_candidates_for_expm1_shape(self):
        out = series_candidates(parse_expr("(- (exp x) 1)"), degree=3)
        assert out
        # leading behaviour is x
        first = out[0]
        assert "x" in str(first)

    def test_multivariate_skipped(self):
        assert series_candidates(parse_expr("(+ x y)")) == []

    def test_infinity_expansion(self):
        # sqrt(x^2+1)-x ~ 1/(2x) at infinity
        out = series_candidates(parse_expr("(- (sqrt (+ (* x x) 1)) x)"), degree=2)
        assert any("/ 1 x" in expr_to_sexpr(e) for e in out)


class TestRegimes:
    def _mk(self, program_src, errors, target):
        return Candidate(
            program=parse_expr(program_src, known_ops=set(target.operators)),
            cost=5.0,
            error=sum(errors) / len(errors),
            point_errors=tuple(errors),
        )

    def test_split_found(self, c99):
        # candidate A perfect below 0, awful above; B the reverse
        points = [{"x": float(v)} for v in (-4, -3, -2, -1, 1, 2, 3, 4)]
        a = self._mk("(add.f64 x 1)", [0, 0, 0, 0, 50, 50, 50, 50], c99)
        b = self._mk("(sub.f64 x 1)", [50, 50, 50, 50, 0, 0, 0, 0], c99)
        branched = infer_regimes([a, b], points, ["x"])
        assert branched is not None
        assert branched.op == "if"

    def test_no_split_when_one_dominates(self, c99):
        points = [{"x": float(v)} for v in range(8)]
        a = self._mk("(add.f64 x 1)", [0.1] * 8, c99)
        b = self._mk("(sub.f64 x 1)", [30.0] * 8, c99)
        assert infer_regimes([a, b], points, ["x"]) is None

    def test_needs_enough_points(self, c99):
        points = [{"x": 1.0}]
        a = self._mk("(add.f64 x 1)", [0.0], c99)
        b = self._mk("(sub.f64 x 1)", [0.0], c99)
        assert infer_regimes([a, b], points, ["x"]) is None


class TestCompileFPCore:
    def test_sqrt_sub_improves(self, c99, sqrt_sub_core):
        result = compile_core(sqrt_sub_core, c99, FAST, SMALL)
        assert len(result.frontier) >= 1
        best = result.frontier.best_error()
        assert best.error < result.input_candidate.error
        # and there's a cheaper-but-rougher option too (Pareto spread)
        assert result.frontier.best_cost().cost <= result.input_candidate.cost

    def test_frontier_is_pareto(self, c99, sqrt_sub_core):
        result = compile_core(sqrt_sub_core, c99, FAST, SMALL)
        items = list(result.frontier)
        for a in items:
            for b in items:
                if a is not b:
                    assert not a.dominates(b)

    def test_sin_on_arith_via_polynomial(self, arith):
        """Targets without transcendentals get polynomial approximations
        (paper section 2: 'AVX code must use polynomial approximations')."""
        core = parse_fpcore("(FPCore (x) :pre (< -1 x 1) (sin x))")
        result = compile_core(core, arith, FAST, SMALL)
        assert len(result.frontier) >= 1
        for candidate in result.frontier:
            assert "sin" not in str(candidate.program)

    def test_untranscribable_raises(self, arith):
        # Multivariate transcendental kernels cannot be series-approximated.
        core = parse_fpcore(
            "(FPCore (x y) :pre (and (< 0.1 x 10) (< 0.1 y 10)) (atan2 y x))"
        )
        from repro.core import Untranscribable

        with pytest.raises(Untranscribable):
            compile_core(core, arith, FAST, SMALL)

    def test_avx_uses_fma(self, avx):
        core = parse_fpcore(
            "(FPCore (a b c) :pre (and (< 0.1 a 10) (< 0.1 b 10) (< 0.1 c 10))"
            " (+ (* a b) c))"
        )
        result = compile_core(core, avx, FAST, SMALL)
        assert any("fma.f64" in str(c.program) for c in result.frontier)

    def test_binary32_core(self, avx):
        core = parse_fpcore(
            "(FPCore (x y) :precision binary32 :pre (and (< 0.1 x 10) (< 0.1 y 10))"
            " (/ x y))"
        )
        result = compile_core(core, avx, FAST, SMALL)
        assert len(result.frontier) >= 1
        assert any("rcp.f32" in str(c.program) for c in result.frontier)

    def test_best_for_error(self, c99, sqrt_sub_core):
        result = compile_core(sqrt_sub_core, c99, FAST, SMALL)
        loose = result.best_for_error(64.0)
        tight = result.best_for_error(1.0)
        assert loose is not None
        if tight is not None:
            assert tight.cost >= loose.cost
