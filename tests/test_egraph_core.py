"""Unit tests for union-find and the e-graph data structure."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.egraph import EGraph, UnionFind
from repro.ir import parse_expr


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        assert a != b
        assert not uf.same(a, b)

    def test_union_and_find(self):
        uf = UnionFind()
        a, b, c = (uf.make_set() for _ in range(3))
        uf.union(a, b)
        assert uf.same(a, b)
        assert not uf.same(a, c)
        uf.union(b, c)
        assert uf.same(a, c)

    def test_smaller_id_wins(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        root = uf.union(b, a)
        assert root == a

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
    def test_transitivity(self, pairs):
        uf = UnionFind()
        for _ in range(20):
            uf.make_set()
        for a, b in pairs:
            uf.union(a, b)
        # find is idempotent and respects union closure
        for a, b in pairs:
            assert uf.same(a, b)
        for i in range(20):
            assert uf.find(uf.find(i)) == uf.find(i)


class TestEGraphBasics:
    def test_add_expr_deduplicates(self):
        g = EGraph()
        a = g.add_expr(parse_expr("(+ x y)"))
        b = g.add_expr(parse_expr("(+ x y)"))
        assert g.same(a, b)
        assert g.num_classes == 3  # x, y, (+ x y)

    def test_distinct_terms_distinct_classes(self):
        g = EGraph()
        a = g.add_expr(parse_expr("(+ x y)"))
        b = g.add_expr(parse_expr("(* x y)"))
        assert not g.same(a, b)

    def test_represents(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(+ x x)"))
        assert g.represents(root, parse_expr("(+ x x)"))
        assert not g.represents(root, parse_expr("(* 2 x)"))

    def test_lookup_expr_without_insert(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ x y)"))
        n = g.num_nodes
        assert g.lookup_expr(parse_expr("(* x y)")) is None
        assert g.num_nodes == n


class TestUnionAndCongruence:
    def test_union_merges_classes(self):
        g = EGraph()
        a = g.add_expr(parse_expr("a"))
        b = g.add_expr(parse_expr("b"))
        g.union(a, b)
        g.rebuild()
        assert g.same(a, b)

    def test_congruence_closure(self):
        # If a = b then f(a) = f(b) after rebuilding.
        g = EGraph()
        fa = g.add_expr(parse_expr("(sqrt a)"))
        fb = g.add_expr(parse_expr("(sqrt b)"))
        a = g.lookup_expr(parse_expr("a"))
        b = g.lookup_expr(parse_expr("b"))
        assert not g.same(fa, fb)
        g.union(a, b)
        g.rebuild()
        assert g.same(fa, fb)

    def test_congruence_cascades(self):
        # a = b implies g(f(a)) = g(f(b)) through two levels.
        g = EGraph()
        gfa = g.add_expr(parse_expr("(exp (sqrt a))"))
        gfb = g.add_expr(parse_expr("(exp (sqrt b))"))
        g.union(g.lookup_expr(parse_expr("a")), g.lookup_expr(parse_expr("b")))
        g.rebuild()
        assert g.same(gfa, gfb)

    def test_hashcons_stays_canonical(self):
        g = EGraph()
        plus = g.add_expr(parse_expr("(+ a b)"))
        a = g.lookup_expr(parse_expr("a"))
        b = g.lookup_expr(parse_expr("b"))
        g.union(a, b)
        g.rebuild()
        # (+ a b) and (+ b a) are distinct nodes but (+ a a) == (+ a b) now.
        assert g.represents(plus, parse_expr("(+ a a)"))
        assert g.represents(plus, parse_expr("(+ b b)"))

    def test_self_union_is_noop(self):
        g = EGraph()
        a = g.add_expr(parse_expr("a"))
        version = g.version
        g.union(a, a)
        assert g.version == version

    def test_cycle_represents_infinite_terms(self):
        # Merge x with (+ x 0): the class now represents (+ (+ x 0) 0) etc.
        g = EGraph()
        x = g.add_expr(parse_expr("x"))
        plus = g.add_expr(parse_expr("(+ x 0)"))
        g.union(x, plus)
        g.rebuild()
        assert g.represents(x, parse_expr("(+ (+ x 0) 0)"))


class TestNodeIteration:
    def test_classes_with_head(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ x (+ y z))"))
        assert len(g.classes_with_head("+")) == 2
        assert len(g.classes_with_head("*")) == 0
