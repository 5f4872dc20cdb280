"""Tests for operator definitions, targets, synthesis, auto-tuning, DSL."""

import math

import pytest

from repro.fpeval import approx
from repro.ir import F32, F64, App, Var, parse_expr
from repro.targets import (
    TARGET_NAMES,
    Target,
    TargetDSLError,
    all_targets,
    autotune_costs,
    get_target,
    opdef,
    parse_target_description,
    synthesize_impl,
)


class TestOperatorDef:
    def test_basic(self):
        op = opdef("add.f64", (F64, F64), F64, "(+ x y)", 4.0)
        assert op.arity == 2
        assert op.params == ("x", "y")
        assert op.is_direct
        assert op.direct_real_op == "+"

    def test_non_direct(self):
        op = opdef("rcp.f32", (F32,), F32, "(/ 1 x)", 4.0)
        assert not op.is_direct
        assert op.direct_real_op is None

    def test_desugar_rules(self):
        op = opdef("rcp.f32", (F32,), F32, "(/ 1 x)", 4.0)
        desugar, lower = op.desugar_rules()
        assert desugar.lhs == App("rcp.f32", (Var("x"),))
        assert desugar.rhs == parse_expr("(/ 1 x)")
        assert lower.lhs == parse_expr("(/ 1 x)")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            opdef("bad.f64", (F64,), F64, "(+ x q)", 1.0)

    def test_bad_type_rejected(self):
        # binary16 became a registered format (fp16); an op type must still
        # be *registered* — truly unknown names are rejected.
        with pytest.raises(ValueError):
            opdef("bad.f64", ("binary128",), F64, "x", 1.0)

    def test_with_cost(self):
        op = opdef("add.f64", (F64, F64), F64, "(+ x y)", 4.0)
        assert op.with_cost(9.0).cost == 9.0
        assert op.cost == 4.0  # original unchanged


class TestBuiltinTargets:
    def test_all_builtin_targets_exist(self):
        # The paper's nine, plus the two narrow-format ML targets.
        assert len(TARGET_NAMES) == 11
        assert len(all_targets()) == 11
        assert {"fp16", "bf16"} < set(TARGET_NAMES)

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            get_target("riscv")

    def test_avx_characteristics(self, avx):
        # The paper's AVX facts: no neg, rcp/rsqrt in f32 only, vector ifs,
        # Fog costs, both formats, the four fma variants.
        assert "neg.f64" not in avx.operators
        assert "rcp.f32" in avx.operators
        assert "rcp.f64" not in avx.operators
        assert avx.if_style == "vector"
        assert avx.cost_source == "Fog [20]"
        assert set(avx.float_types()) == {F32, F64}
        for fma in ("fma.f64", "fms.f64", "fnma.f64", "fnms.f64"):
            assert fma in avx.operators
        # no transcendentals on AVX
        assert "sin.f64" not in avx.operators

    def test_python_characteristics(self, python_target):
        # No fma (paper!), f64 only, flat overhead-dominated costs.
        assert "fma.f64" not in python_target.operators
        assert python_target.float_types() == (F64,)
        costs = [op.cost for op in python_target.operators.values()]
        assert max(costs) / min(costs) < 5  # clustered (flat) cost model

    def test_c99_has_stark_divisions(self, c99):
        assert c99.operator("pow.f64").cost > 10 * c99.operator("add.f64").cost

    def test_julia_helpers(self, julia):
        for helper in ("sind.f64", "cosd.f64", "deg2rad.f64", "abs2.f64", "sinpi.f64"):
            assert helper in julia.operators
        assert julia.operator("sind.f64").approx == parse_expr(
            "(sin (* (/ PI 180) x))"
        )

    def test_vdt_fast_variants(self, vdt):
        assert vdt.operator("fast_exp.f64").cost < vdt.operator("exp.f64").cost
        assert "fast_isqrt.f64" in vdt.operators
        assert "appr_isqrt.f64" in vdt.operators

    def test_fdlibm_log1pmd(self, fdlibm):
        op = fdlibm.operator("log1pmd.f64")
        assert op.approx == parse_expr("(- (log (+ 1 x)) (log (- 1 x)))")
        # cheaper than two separate logs
        assert op.cost < 2 * fdlibm.operator("log.f64").cost

    def test_numpy_vector_style(self, numpy_target):
        assert numpy_target.if_style == "vector"
        assert "logaddexp.f64" in numpy_target.operators
        assert "fma.f64" not in numpy_target.operators


class TestTargetMethods:
    def test_desugar_expr(self, avx):
        prog = parse_expr("(fma.f64 a b c)", known_ops=set(avx.operators))
        assert avx.desugar_expr(prog) == parse_expr("(+ (* a b) c)")

    def test_desugar_nested(self, fdlibm):
        prog = parse_expr(
            "(mul.f64 (log1pmd.f64 x) 0.5)", known_ops=set(fdlibm.operators)
        )
        real = fdlibm.desugar_expr(prog)
        assert real == parse_expr("(* (- (log (+ 1 x)) (log (- 1 x))) 0.5)")

    def test_direct_index_prefers_accurate(self, vdt):
        index = vdt.direct_index()
        assert index[("exp", F64)].name == "exp.f64"  # not fast_exp

    def test_extend_adds_and_overrides(self, arith):
        extra = opdef("exp.f64", (F64,), F64, "(exp x)", 40.0)
        derived = arith.extend(
            "arith-exp", add_operators=[extra], override_costs={"add.f64": 2.0}
        )
        assert derived.supports("exp.f64")
        assert derived.operator("add.f64").cost == 2.0
        assert arith.operator("add.f64").cost != 2.0  # original frozen

    def test_extend_removes(self, arith):
        derived = arith.extend("no-div", remove_operators=["div.f64"])
        assert not derived.supports("div.f64")

    def test_impl_registry_covers_all_ops(self, julia):
        registry = julia.impl_registry()
        assert set(registry) == set(julia.operators)


class TestSynthesis:
    def test_synthesized_is_correctly_rounded(self):
        impl = synthesize_impl(parse_expr("(log (+ 1 x))"), ("x",), F64)
        assert impl(1e-300) == 1e-300  # log1p accuracy where naive log fails
        assert impl(1.5) == math.log(2.5)

    def test_synthesized_domain_error_is_nan(self):
        impl = synthesize_impl(parse_expr("(log x)"), ("x",), F64)
        assert math.isnan(impl(-1.0))

    def test_synthesized_calls_go_through_rival_evaluator_eval(self, monkeypatch):
        """perfbench's ``scalar`` layer wraps ``RivalEvaluator.eval`` by
        name; synthesized operators must still call it."""
        from repro.rival.eval import RivalEvaluator

        calls = []
        unwrapped = RivalEvaluator.eval

        def counted(self, *args, **kwargs):
            calls.append(args)
            return unwrapped(self, *args, **kwargs)

        monkeypatch.setattr(RivalEvaluator, "eval", counted)
        impl = synthesize_impl(parse_expr("(log (+ 1 x))"), ("x",), F64)
        assert impl(1.5) == math.log(2.5)
        assert len(calls) == 1

    def test_synthesized_f32(self):
        from repro.fpeval import to_f32

        impl = synthesize_impl(parse_expr("(/ 1 x)"), ("x",), F32)
        assert impl(3.0) == to_f32(1.0 / 3.0)

    def test_higher_internal_precision(self, julia):
        # sind(30) must be exactly 0.5: the helper multiplies by pi/180 in
        # extended precision (the paper's Julia discussion).
        sind = julia.impl_registry()["sind.f64"].impl
        assert sind(30.0) == 0.5
        naive = math.sin(math.radians(30.0))
        assert naive != 0.5  # the naive composition is off


class TestAutotune:
    def test_costs_track_latency(self, c99):
        costs = autotune_costs(c99)
        assert costs["pow.f64"] > costs["add.f64"]
        assert costs["sqrt.f64"] > costs["add.f64"]

    def test_costs_noisy_but_close(self, c99):
        costs = autotune_costs(c99)
        for name, cost in costs.items():
            truth = c99.operator(name).true_latency + c99.perf_overhead
            assert 0.5 * truth <= cost <= 2.0 * truth + 1.0, name

    def test_deterministic(self, c99):
        assert autotune_costs(c99) == autotune_costs(c99)


class TestTargetDSL:
    SRC = """
    (define-operator (rcp.f32 [v binary32]) binary32
      #:approx (/ 1 v)
      #:link rcp32
      #:cost 4.0)
    (define-operator (mul.f32 [a binary32] [b binary32]) binary32
      #:approx (* a b)
      #:cost 4.0)
    (define-target mini
      #:if-cost (max 5)
      #:if-style vector
      #:literals ([binary32 1])
      #:operators (rcp.f32 mul.f32))
    """

    def test_parses(self):
        target = parse_target_description(self.SRC, {"rcp32": approx.rcp32})
        assert target.name == "mini"
        assert target.if_cost == 5.0
        assert target.if_style == "vector"
        assert target.operator("rcp.f32").linked

    def test_param_renaming(self):
        target = parse_target_description(self.SRC, {"rcp32": approx.rcp32})
        assert target.operator("rcp.f32").approx == parse_expr("(/ 1 x)")

    def test_import(self, arith):
        src = """
        (define-target bigger
          #:import arith
          #:literals ([binary64 1])
          #:operators ())
        """
        target = parse_target_description(src, import_registry={"arith": arith})
        assert target.supports("add.f64")

    def test_missing_link_rejected(self):
        with pytest.raises(TargetDSLError):
            parse_target_description(self.SRC, {})

    def test_unknown_operator_rejected(self):
        with pytest.raises(TargetDSLError):
            parse_target_description(
                "(define-target t #:operators (nope.f64))"
            )

    def test_no_target_rejected(self):
        with pytest.raises(TargetDSLError):
            parse_target_description("(define-operator (i.f64 [x binary64]) binary64 #:approx x)")
