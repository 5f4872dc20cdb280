"""Integration tests: the paper's section 6.4 case studies.

These verify the *qualitative* claims: Chassis finds the target-specific
operators the paper highlights (fma variants and rcp on AVX, degree-based
trigonometry on Julia, log1pmd on fdlibm).
"""

import pytest

from repro.accuracy import SampleConfig
from repro.benchsuite import core_named
from repro.core import CompileConfig, compile_core
from repro.core.isel import instruction_select
from repro.ir import F32, F64, expr_to_sexpr, parse_expr

CONFIG = CompileConfig(iterations=2, localize_points=8, max_variants=25)
SAMPLES = SampleConfig(n_train=24, n_test=24)


class TestQuadraticOnAVX:
    def test_fma_variants_appear(self, avx):
        """Paper: 'leverages the many fma variants available'."""
        core = core_named("quadratic-mod")
        result = compile_core(core, avx, CONFIG, SAMPLES)
        programs = " ".join(str(c.program) for c in result.frontier)
        assert "fma" in programs or "fnma" in programs or "fms" in programs

    def test_rcp_in_single_precision(self, avx):
        """Paper: 'in single-precision, Chassis can also use rcpss'."""
        prog = parse_expr("(/ x y)")
        variants = instruction_select(prog, avx, ty=F32)
        assert any("rcp.f32" in expr_to_sexpr(v) for v in variants)

    def test_double_precision_has_no_rcp(self, avx):
        prog = parse_expr("(/ x y)")
        variants = instruction_select(prog, avx, ty=F64, max_variants=60)
        for variant in variants:
            # rcp exists only at f32; f64 programs may reach it only via casts
            if "rcp.f32" in expr_to_sexpr(variant):
                assert "cast" in expr_to_sexpr(variant)


class TestEllipseOnJulia:
    def test_sind_cosd_found(self, julia):
        """Paper: Chassis uses Julia's degree-based trig helpers."""
        sub = parse_expr("(sin (* (/ PI 180) theta))")
        variants = instruction_select(sub, julia, ty=F64)
        assert any("sind.f64" in expr_to_sexpr(v) for v in variants)

    def test_full_compile_improves_accuracy(self, julia):
        core = core_named("ellipse-angle")
        result = compile_core(core, julia, CONFIG, SAMPLES)
        assert result.frontier.best_error().error <= result.input_candidate.error
        programs = " ".join(str(c.program) for c in result.frontier)
        # some helper (sind/cosd/deg2rad/abs2) should surface
        assert any(h in programs for h in ("sind", "cosd", "deg2rad", "abs2"))


class TestAcothOnFdlibm:
    def test_log1pmd_variant_found(self, fdlibm):
        """Paper: Chassis implements acoth as log1pmd(x) * 0.5."""
        prog = parse_expr("(* 1/2 (log (/ (+ 1 x) (- 1 x))))")
        variants = instruction_select(prog, fdlibm, ty=F64)
        rendered = [expr_to_sexpr(v) for v in variants]
        assert any("log1pmd.f64" in r for r in rendered)
        # the exact shape from the paper
        assert any(
            r in ("(mul.f64 (log1pmd.f64 x) 0.5)", "(mul.f64 0.5 (log1pmd.f64 x))")
            for r in rendered
        )

    def test_log1pmd_cheaper_than_two_logs(self, fdlibm):
        from repro.cost import TargetCostModel

        model = TargetCostModel(fdlibm)
        ops = set(fdlibm.operators)
        paper = parse_expr("(mul.f64 (log1pmd.f64 x) 0.5)", known_ops=ops)
        herbie_style = parse_expr(
            "(mul.f64 0.5 (sub.f64 (log1p.f64 x) (log1p.f64 (neg.f64 x))))",
            known_ops=ops,
        )
        assert model.program_cost(paper) < model.program_cost(herbie_style)

    def test_full_compile_uses_library_internal(self, fdlibm):
        core = core_named("acoth")
        result = compile_core(core, fdlibm, CONFIG, SAMPLES)
        assert result.frontier.best_error().error < result.input_candidate.error
