"""Tests for e-matching, rewrites, and the saturation runner."""

import pytest

from repro.egraph import (
    EGraph,
    Rewrite,
    RunnerLimits,
    extract_best,
    instantiate,
    run_rules,
    rw,
    search_pattern,
)
from repro.ir import parse_expr
from repro.ir.expr import App, Num, Var


def matches_in(g, pattern, class_id):
    """Substitutions of ``pattern`` matching e-class ``class_id``."""
    root = g.find(class_id)
    return [subst for found, subst in search_pattern(g, pattern) if found == root]


class TestEMatch:
    def test_var_pattern_binds(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(+ x y)"))
        matches = matches_in(g, parse_expr("(+ a b)"), root)
        assert len(matches) == 1
        subst = matches[0]
        assert g.same(subst["a"], g.lookup_expr(parse_expr("x")))
        assert g.same(subst["b"], g.lookup_expr(parse_expr("y")))

    def test_nonlinear_pattern(self):
        g = EGraph()
        same = g.add_expr(parse_expr("(+ x x)"))
        diff = g.add_expr(parse_expr("(+ x y)"))
        assert matches_in(g, parse_expr("(+ a a)"), same)
        assert not matches_in(g, parse_expr("(+ a a)"), diff)

    def test_nonlinear_matches_after_union(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(+ x y)"))
        g.union(g.lookup_expr(parse_expr("x")), g.lookup_expr(parse_expr("y")))
        g.rebuild()
        assert matches_in(g, parse_expr("(+ a a)"), root)

    def test_literal_pattern(self):
        g = EGraph()
        one = g.add_expr(parse_expr("(* x 1)"))
        other = g.add_expr(parse_expr("(* x 2)"))
        pattern = parse_expr("(* a 1)")
        assert matches_in(g, pattern, one)
        assert not matches_in(g, pattern, other)

    def test_nested_pattern(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(sqrt (+ x 1))"))
        matches = matches_in(g, parse_expr("(sqrt (+ a 1))"), root)
        assert len(matches) == 1

    def test_search_pattern_finds_all(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ (+ a b) (+ c d))"))
        found = search_pattern(g, parse_expr("(+ p q)"))
        assert len(found) == 3

    def test_search_pattern_limit(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ (+ a b) (+ c d))"))
        assert len(search_pattern(g, parse_expr("(+ p q)"), limit=2)) == 2

    def test_search_pattern_limit_zero(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ (+ a b) (+ c d))"))
        assert search_pattern(g, parse_expr("(+ p q)"), limit=0) == []

    def test_hostile_names_stay_data(self):
        # Operator and variable names that would break (or inject into)
        # generated source if pasted into it.
        op = 'f"\'\n) or __import__("os")#'
        var = "q'\"\nx"
        g = EGraph()
        root = g.add_expr(App(op, (Var("x"), Num(2))))
        lhs = App(op, (Var(var), Num(2)))
        ((found, subst),) = search_pattern(g, lhs)
        assert found == root and set(subst) == {var}
        rule = Rewrite("hostile", lhs, App(op, (Num(2), Var(var))))
        report = run_rules(g, [rule])
        assert report.matches_applied == 1
        assert g.represents(root, App(op, (Num(2), Var("x"))))

    def test_instantiate(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(+ x y)"))
        (subst,) = matches_in(g, parse_expr("(+ a b)"), root)
        new = instantiate(g, parse_expr("(* a b)"), subst)
        assert g.represents(new, parse_expr("(* x y)"))

    def test_instantiate_unbound_raises(self):
        g = EGraph()
        with pytest.raises(KeyError):
            instantiate(g, parse_expr("(+ a b)"), {"a": 0})


class TestRewrite:
    def test_basic_application(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(+ q q)"))
        rule = rw("double", "(+ a a)", "(* 2 a)")
        assert rule.apply(g) == 1
        g.rebuild()
        assert g.represents(root, parse_expr("(* 2 q)"))

    def test_rhs_unbound_rejected(self):
        with pytest.raises(ValueError):
            rw("bad", "(+ a a)", "(+ a b)")

    def test_limit_zero_applies_nothing(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ q q)"))
        before = g.generation
        assert rw("double", "(+ a a)", "(* 2 a)").apply(g, limit=0) == 0
        assert g.generation == before

    def test_condition_blocks(self):
        g = EGraph()
        g.add_expr(parse_expr("(/ q q)"))
        rule = rw("cancel", "(/ a a)", "1", condition=lambda eg, s: False)
        assert rule.apply(g) == 0

    def test_nondestructive(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(+ q q)"))
        rw("double", "(+ a a)", "(* 2 a)").apply(g)
        g.rebuild()
        # the original form is still represented
        assert g.represents(root, parse_expr("(+ q q)"))
        assert g.represents(root, parse_expr("(* 2 q)"))


class TestRunner:
    def test_saturates(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(+ x 0)"))
        report = run_rules(g, [rw("id", "(+ a 0)", "a")])
        assert report.stop_reason == "saturated"
        assert g.same(root, g.lookup_expr(parse_expr("x")))

    def test_node_limit_respected(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ x y)"))
        # each round introduces a fresh (* a a) class: unbounded growth
        rules = [
            rw("comm", "(+ a b)", "(+ b a)"),
            rw("grow", "(+ a b)", "(+ (* a a) b)"),
        ]
        limits = RunnerLimits(max_iterations=50, max_nodes=60)
        report = run_rules(g, rules, limits)
        assert report.stop_reason == "node-limit"
        assert g.num_nodes <= 80  # small overshoot within one batch is fine

    def test_iteration_limit(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ x y)"))
        rules = [rw("grow", "(+ a b)", "(+ (* a a) b)")]
        report = run_rules(g, rules, RunnerLimits(max_iterations=2, max_nodes=10**6))
        assert report.iterations <= 2

    def test_rule_match_counts_reported(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ (+ x 0) 0)"))
        report = run_rules(g, [rw("id", "(+ a 0)", "a")])
        assert report.rule_matches.get("id", 0) >= 2

    def test_composed_rewrites_reach_target(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(+ x x)"))
        rules = [
            rw("double", "(+ a a)", "(* 2 a)"),
            rw("comm", "(* a b)", "(* b a)"),
        ]
        run_rules(g, rules)
        assert g.represents(root, parse_expr("(* x 2)"))
