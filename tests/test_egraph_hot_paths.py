"""The e-graph's hot paths do only the work that is read.

* :class:`GraphSnapshot` builds the matcher's view (``by_head``) and the
  extractor's view (``nodes``/``parents``) separately, each on first read,
  and refuses to build one once its graph has changed;
* :class:`TypedExtractor` prices nodes from a per-run table of each head's
  choices, with the arity still checked per node, and its ``best`` tables
  equal those of the per-node generator pricing it replaced;
* ``union``, ``add_node``, ``find`` and ``classes_with_head`` skip
  union-find work for ids that are roots.
"""

import gc
import random

import pytest

from repro.core.isel import DEFAULT_ISEL_LIMITS, _rules_for
from repro.cost.model import TargetCostModel
from repro.egraph import (
    EGraph,
    EngineStats,
    TypedExtractor,
    engine_stats_sink,
    run_rules,
)
from repro.egraph import egraph as egraph_module
from repro.egraph.egraph import StaleSnapshotError
from repro.egraph.enode import is_op_head
from repro.egraph.unionfind import UnionFind
from repro.ir import parse_expr
from repro.targets import get_target


def _graph_of(source: str = "(- (sqrt (+ x 1)) (sqrt x))") -> EGraph:
    g = EGraph()
    g.add_expr(parse_expr(source))
    return g


class TestSplitSnapshot:
    def test_held_snapshot_refuses_to_build_after_a_mutation(self):
        g = _graph_of()
        snap = g.snapshot()
        by_head = snap.by_head  # built at the snapshot's generation
        g.add_expr(parse_expr("(* x x)"))
        with pytest.raises(StaleSnapshotError):
            snap.nodes
        with pytest.raises(StaleSnapshotError):
            snap.parents
        # A view built before the mutation stays as it was.
        assert snap.by_head is by_head
        assert g.snapshot() is not snap

    def test_a_union_alone_makes_a_snapshot_stale(self):
        g = EGraph()
        a, b = g.add_expr(parse_expr("x")), g.add_expr(parse_expr("y"))
        snap = g.snapshot()
        g.union(a, b)
        with pytest.raises(StaleSnapshotError):
            snap.by_head

    def test_snapshot_outliving_its_graph_refuses_to_build(self):
        g = _graph_of()
        snap = g.snapshot()
        del g
        gc.collect()
        with pytest.raises(StaleSnapshotError):
            snap.nodes

    def test_search_only_saturation_never_builds_the_extractor_view(
        self, monkeypatch
    ):
        def refuse(egraph):
            raise AssertionError("a search built nodes/parents")

        monkeypatch.setattr(egraph_module, "_topology", refuse)
        g = _graph_of()
        stats = EngineStats()
        with engine_stats_sink(stats):
            report = run_rules(
                g, _rules_for(get_target("c99")), DEFAULT_ISEL_LIMITS
            )
        # One by_head build per searched generation, and nothing else.
        assert stats.snapshots_built == report.iterations
        monkeypatch.undo()

        model = TargetCostModel(get_target("c99"))
        with engine_stats_sink(stats):
            TypedExtractor(g, model, {"x": "binary64"})
            TypedExtractor(g, model, {"x": "binary64"})
        # Extraction builds only nodes/parents, once for both extractors.
        assert stats.snapshots_built == report.iterations + 1


class _CostModel:
    """A small typed cost model with a float op, a cast, a real op and an
    op ``f`` declared binary (nodes of it occur unary as well)."""

    SIGNATURES = {
        "f": (("binary64", "binary64"), "binary64"),
        "g": (("binary64",), "binary32"),
        "h": (("binary32",), "binary64"),
        "k": ((), "binary64"),
    }
    COSTS = {"f": 3.0, "g": 1.25, "h": 0.1, "k": 0.3}

    def operator_signature(self, op):
        return self.SIGNATURES.get(op)

    def operator_cost(self, op):
        return self.COSTS[op]

    def literal_types(self):
        return ("binary64", "binary32")

    def literal_cost(self, ty):
        return {"binary64": 0.7, "binary32": 0.35}[ty]

    def variable_cost(self, ty):
        return 0.2


class _GeneratorPriced(TypedExtractor):
    """The worklist as it priced every node before the per-run table: a
    generator per node that looks the signature and cost up again."""

    def _run(self):
        from collections import deque

        best = self.best
        nodes = self.snapshot.nodes
        parents = self.snapshot.parents
        pending = deque(nodes)
        queued = set(pending)
        while pending:
            class_id = pending.popleft()
            queued.discard(class_id)
            table = best.setdefault(class_id, {})
            improved = False
            for head, args, node in nodes[class_id]:
                for ty, cost, arg_types in self._node_options(head, args):
                    current = table.get(ty)
                    if current is None or cost < current[0]:
                        table[ty] = (cost, node, arg_types)
                        improved = True
            if improved:
                for parent in parents.get(class_id, ()):
                    if parent not in queued:
                        queued.add(parent)
                        pending.append(parent)

    def _node_options(self, head, args):
        if is_op_head(head):
            signature = self.cost_model.operator_signature(head)
            if signature is None:
                return
            arg_types, ret_type = signature
            if len(arg_types) != len(args):
                return
            total = self.cost_model.operator_cost(head)
            for arg, arg_ty in zip(args, arg_types):
                entry = self.best.get(arg, {}).get(arg_ty)
                if entry is None:
                    return
                total += entry[0]
            yield ret_type, total, arg_types
            return
        tag = head[0]
        if tag == "var":
            ty = self.var_types.get(head[1])
            if ty is not None:
                yield ty, self.cost_model.variable_cost(ty), ()
        elif tag in ("num", "const"):
            if tag == "const" and head[1] in ("TRUE", "FALSE", "NAN"):
                return
            for ty in self.cost_model.literal_types():
                yield ty, self.cost_model.literal_cost(ty), ()


def _mixed_arity_graph(seed: int, ops) -> EGraph:
    rng = random.Random(seed)
    g = EGraph()
    leaves = ["x", "y", "1", "2.5", "PI", "TRUE"]
    ids = [g.add_expr(parse_expr(leaf)) for leaf in leaves]
    for _ in range(rng.randrange(15, 50)):
        op, arity = rng.choice(ops)
        ids.append(g.add_node(op, tuple(rng.choice(ids) for _ in range(arity))))
    for _ in range(rng.randrange(0, 10)):
        g.union(rng.choice(ids), rng.choice(ids))
    g.rebuild()
    return g


def _bits(best) -> dict:
    """``best`` with every cost as its exact bit pattern."""
    return {
        class_id: {
            ty: (cost.hex(), node, tuple(arg_types))
            for ty, (cost, node, arg_types) in table.items()
        }
        for class_id, table in best.items()
    }


class TestTablePricedTypedExtraction:
    @pytest.mark.parametrize("seed", range(20))
    def test_head_with_two_arities_prices_like_the_generator(self, seed):
        ops = [("f", 2), ("f", 1), ("g", 1), ("h", 1), ("k", 0), ("k", 1),
               ("r", 2)]
        g = _mixed_arity_graph(seed, ops)
        model, var_types = _CostModel(), {"x": "binary64"}
        got = TypedExtractor(g, model, var_types).best
        want = _GeneratorPriced(g, model, var_types).best
        assert _bits(got) == _bits(want)
        assert got == want

    @pytest.mark.parametrize("seed", range(10))
    def test_target_model_prices_like_the_generator(self, seed):
        ops = [("+.f64", 2), ("+.f64", 1), ("*.f64", 2), ("sqrt.f64", 1),
               ("sqrt.f32", 1), ("cast.f64->f32", 1), ("+", 2), ("neg", 1)]
        g = _mixed_arity_graph(seed, ops)
        model = TargetCostModel(get_target("c99"))
        var_types = {"x": "binary64", "y": "binary32"}
        got = TypedExtractor(g, model, var_types).best
        want = _GeneratorPriced(g, model, var_types).best
        assert _bits(got) == _bits(want)

    def test_saturated_graph_of_prices_like_the_generator(self):
        target = get_target("c99")
        g = _graph_of("(/ (- (exp x) 1) x)")
        run_rules(g, _rules_for(target), DEFAULT_ISEL_LIMITS)
        model, var_types = TargetCostModel(target), {"x": "binary64"}
        got = TypedExtractor(g, model, var_types).best
        want = _GeneratorPriced(g, model, var_types).best
        assert _bits(got) == _bits(want)


class TestRootFastPaths:
    @pytest.mark.parametrize("seed", range(10))
    def test_unions_pick_the_same_roots_as_union_find(self, seed):
        rng = random.Random(seed)
        g, uf = EGraph(), UnionFind()
        ids = []
        for k in range(30):
            ids.append(g.add_expr(parse_expr(f"v{k}")))
            uf.make_set()
        for _ in range(40):
            a, b = rng.choice(ids), rng.choice(ids)
            assert g.union(a, b) == uf.union(a, b)
        assert [g.find(i) for i in ids] == [uf.find(i) for i in ids]
        assert g._dead == {i for i in ids if uf.find(i) != i}

    def test_hashcons_hit_returns_the_root(self):
        g = EGraph()
        x, y = g.add_expr(parse_expr("x")), g.add_expr(parse_expr("y"))
        sx = g.add_node("sqrt", (x,))
        assert g.add_node("sqrt", (x,)) == sx  # a live hit, as it is
        g.union(sx, y)  # y's id is smaller, so the hashcons entry dies
        g.rebuild()
        assert sx in g._dead
        assert g.add_node("sqrt", (x,)) == g.find(sx) == y

    def test_classes_with_head_returns_live_entries_in_order(self):
        g = EGraph()
        roots = [g.add_expr(parse_expr(f"(sqrt v{k})")) for k in range(4)]
        assert g.classes_with_head("sqrt") == roots
        g.union(roots[3], roots[1])
        g.rebuild()
        assert g.classes_with_head("sqrt") == [roots[0], roots[1], roots[2]]
