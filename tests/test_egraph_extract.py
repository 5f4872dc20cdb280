"""Tests for typed and multi extraction."""

import pytest

from repro.cost import TargetCostModel
from repro.egraph import EGraph, TypedExtractor, run_rules, rw
from repro.ir import F32, F64, parse_expr


class _MiniModel:
    """A hand-rolled TypedCostModel for isolation tests."""

    SIGS = {
        "add.f64": ((F64, F64), F64, 1.0),
        "add.f32": ((F32, F32), F32, 1.0),
        "mul.f64": ((F64, F64), F64, 1.0),
        "rcp.f32": ((F32,), F32, 2.0),
        "div.f32": ((F32, F32), F32, 8.0),
        "cast.f32": ((F64,), F32, 1.0),
        "cast.f64": ((F32,), F64, 1.0),
    }

    def operator_signature(self, op):
        entry = self.SIGS.get(op)
        return (entry[0], entry[1]) if entry else None

    def operator_cost(self, op):
        return self.SIGS[op][2]

    def literal_types(self):
        return (F32, F64)

    def literal_cost(self, ty):
        return 0.5

    def variable_cost(self, ty):
        return 0.5


class TestTypedExtraction:
    def test_skips_real_nodes(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(+ x y)"))  # real operator only
        ex = TypedExtractor(g, _MiniModel(), {"x": F64, "y": F64})
        assert ex.cost_of(root, F64) is None

    def test_extracts_float_node(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(add.f64 x y)", known_ops={"add.f64"}))
        ex = TypedExtractor(g, _MiniModel(), {"x": F64, "y": F64})
        assert ex.cost_of(root, F64) == 2.0
        assert ex.extract(root, F64) == parse_expr("(add.f64 x y)", known_ops={"add.f64"})

    def test_type_mismatch_not_extractable(self):
        # add.f32 over f64 variables has no valid typing without casts.
        g = EGraph()
        root = g.add_expr(parse_expr("(add.f32 x y)", known_ops={"add.f32"}))
        ex = TypedExtractor(g, _MiniModel(), {"x": F64, "y": F64})
        assert ex.cost_of(root, F32) is None

    def test_casts_enable_cross_format(self):
        ops = {"add.f32", "cast.f32"}
        g = EGraph()
        root = g.add_expr(
            parse_expr("(add.f32 (cast.f32 x) (cast.f32 y))", known_ops=ops)
        )
        ex = TypedExtractor(g, _MiniModel(), {"x": F64, "y": F64})
        assert ex.cost_of(root, F32) == pytest.approx(1 + 2 * (1 + 0.5))

    def test_tracks_per_type_best(self):
        # One e-class holding both an f64 and an f32 implementation.
        ops = {"add.f64", "add.f32"}
        g = EGraph()
        a = g.add_expr(parse_expr("(add.f64 x y)", known_ops=ops))
        b = g.add_expr(parse_expr("(add.f32 u v)", known_ops=ops))
        g.union(a, b)
        g.rebuild()
        ex = TypedExtractor(
            g, _MiniModel(), {"x": F64, "y": F64, "u": F32, "v": F32}
        )
        assert ex.cost_of(a, F64) is not None
        assert ex.cost_of(a, F32) is not None
        assert set(ex.available_types(a)) == {F32, F64}

    def test_literals_available_at_all_types(self):
        g = EGraph()
        root = g.add_expr(parse_expr("1"))
        ex = TypedExtractor(g, _MiniModel(), {})
        assert ex.cost_of(root, F32) == 0.5
        assert ex.cost_of(root, F64) == 0.5

    def test_handles_cycles(self):
        g = EGraph()
        ops = {"add.f64"}
        x = g.add_expr(parse_expr("x"))
        plus = g.add_expr(parse_expr("(add.f64 x 0)", known_ops=ops))
        g.union(x, plus)
        g.rebuild()
        # The class represents infinitely many terms; extraction terminates.
        ex = TypedExtractor(g, _MiniModel(), {"x": F64})
        assert ex.extract(x, F64) == parse_expr("x")
        assert ex.cost_of(plus, F64) == 0.5

    def test_picks_smaller_form_after_saturation(self):
        ops = {"add.f64", "mul.f64"}
        g = EGraph()
        root = g.add_expr(parse_expr("(add.f64 (mul.f64 x 1) 0)", known_ops=ops))
        run_rules(g, [
            rw("mul1", "(mul.f64 a 1)", "a", known_ops=ops),
            rw("add0", "(add.f64 a 0)", "a", known_ops=ops),
        ])
        ex = TypedExtractor(g, _MiniModel(), {"x": F64})
        assert ex.extract(root, F64) == parse_expr("x")
        assert ex.cost_of(root, F64) == 0.5

    def test_cost_model_decides_the_form(self):
        ops = {"add.f64", "mul.f64"}
        g = EGraph()
        root = g.add_expr(parse_expr("(add.f64 x x)", known_ops=ops))
        run_rules(g, [rw("double", "(add.f64 a a)", "(mul.f64 2 a)",
                         known_ops=ops)])

        class ExpensiveAdd(_MiniModel):
            def operator_cost(self, op):
                return 10.0 if op == "add.f64" else super().operator_cost(op)

        # Equal costs tie at 2.0 vs 2.0; pricing add up must pick the mul.
        cheap = TypedExtractor(g, _MiniModel(), {"x": F64})
        assert cheap.cost_of(root, F64) == 2.0
        pricey = TypedExtractor(g, ExpensiveAdd(), {"x": F64})
        assert pricey.extract(root, F64) == parse_expr(
            "(mul.f64 2 x)", known_ops=ops
        )
        assert pricey.cost_of(root, F64) == 2.0

    def test_paper_example_groups_by_type(self):
        """Section 5.1's worked example: div.f64, div.f32 and rcp.f32 in one
        class; typed extraction keeps one best per output type."""
        ops = {"div.f32", "rcp.f32", "add.f64"}
        g = EGraph()
        d32 = g.add_expr(parse_expr("(div.f32 one u)", known_ops=ops))
        r32 = g.add_expr(parse_expr("(rcp.f32 u)", known_ops=ops))
        g.union(d32, r32)
        g.rebuild()
        ex = TypedExtractor(g, _MiniModel(), {"u": F32, "one": F32})
        # rcp (2 + 0.5) beats div (8 + 0.5 + 0.5)
        assert ex.extract(d32, F32).op == "rcp.f32"


class TestMultiExtraction:
    def test_one_variant_per_typed_enode(self, avx):
        from repro.core.isel import instruction_select

        prog = parse_expr("(div.f32 x y)", known_ops=set(avx.operators))
        variants = instruction_select(prog, avx, ty=F32)
        ops_used = {v.op for v in variants}
        assert "div.f32" in ops_used or any("div" in str(v) for v in variants)
        assert any("rcp.f32" in str(v) for v in variants)
        # all distinct
        assert len(set(variants)) == len(variants)

    def test_limit_respected(self, avx):
        from repro.core.isel import instruction_select

        prog = parse_expr("(div.f32 x y)", known_ops=set(avx.operators))
        variants = instruction_select(prog, avx, ty=F32, max_variants=3)
        assert len(variants) <= 3

    def test_variants_sorted_by_cost(self, avx):
        from repro.core.isel import instruction_select
        from repro.cost import TargetCostModel

        prog = parse_expr("(div.f32 x y)", known_ops=set(avx.operators))
        variants = instruction_select(prog, avx, ty=F32)
        model = TargetCostModel(avx)
        costs = [model.program_cost(v) for v in variants]
        assert costs == sorted(costs)
