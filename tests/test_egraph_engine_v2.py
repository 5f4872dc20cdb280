"""Engine v2 tests: the runner's head-presence rule filter, the compiled
rule programs against a brute-force reference matcher, determinism (under
hash seeds and a jumping clock), worklist-extractor parity with the old
fixpoint, the per-target rule cache, engine counters, and the runner's
deadline/truncation satellites."""

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from ematch_reference import (
    reference_applied,
    reference_lookup,
    reference_matches,
)

from repro.accuracy.sampler import SampleConfig
from repro.benchsuite import core_named
from repro.benchsuite.generator import generate_core
from repro.core import isel
from repro.core.isel import DEFAULT_ISEL_LIMITS, _rules_for, instruction_select
from repro.core.loop import CompileConfig
from repro.core.transcribe import Untranscribable, transcribe_with_poly
from repro.cost import opportunity
from repro.cost.model import TargetCostModel
from repro.cost.opportunity import cost_opportunities
from repro.deadline import DeadlineExceeded, deadline
from repro.egraph import (
    EGraph,
    EngineStats,
    ExtractionError,
    RunnerLimits,
    TypedExtractor,
    engine_stats_sink,
    extract_variants,
    run_rules,
    rule_program,
    rw,
    search_pattern,
)
from repro.egraph.ematch import pattern_heads
from repro.ir import parse_expr
from repro.ir.expr import App, Num, Var
from repro.ir.printer import expr_to_sexpr
from repro.service.cache import config_fingerprint
from repro.service.results import result_to_dict
from repro.session import ChassisSession
from repro.targets import get_target

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Small budget so saturation tests cover several iterations without CI
#: cost.
SMALL = RunnerLimits(max_iterations=3, max_nodes=700, max_matches_per_rule=80)

FILTER_CASES = [
    (name, ty, seed)
    for name in ("c99", "fdlibm", "avx", "arith")
    for ty in ("binary64", "binary32")
    for seed in (2, 7)
]


def _generated_graph(target, ty: str, seed: int) -> EGraph:
    """A generator core's real body plus, when the target can run it at
    ``ty``, its transcription: the mixed real/float graph isel saturates."""
    core = generate_core(seed, n_vars=2, depth=4)
    egraph = EGraph()
    egraph.add_expr(core.body)
    try:
        egraph.add_expr(transcribe_with_poly(core.body, target, ty))
    except Untranscribable:
        pass
    return egraph


def _graph_state(egraph: EGraph) -> tuple:
    """Everything that identifies a graph: classes, their nodes, generation."""
    classes = {
        egraph.find(eclass.id): tuple(eclass.nodes)
        for eclass in egraph.classes()
    }
    return classes, egraph.num_nodes, egraph.generation


class TestHeadFilter:
    def test_pattern_heads(self):
        assert pattern_heads(parse_expr("(+ (* a 2) PI)")) == {
            "+", "*", ("num", 2), ("const", "PI"),
        }
        assert pattern_heads(parse_expr("a")) == frozenset()
        assert rw("r", "(sqrt (+ a 0))", "a").heads == {"sqrt", "+", ("num", 0)}

    def test_graph_heads_track_insertions(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ x 1)"))
        assert set(g.heads()) == {"+", ("var", "x"), ("num", 1)}
        a, b = g.add_expr(parse_expr("(sqrt x)")), g.add_expr(parse_expr("y"))
        g.union(a, b)
        g.rebuild()
        assert {"sqrt", ("var", "y")} <= set(g.heads())

    def test_deep_chain_match_at_unchanged_root(self):
        # Iteration 0 has no ``(+ _ 0)`` node at all, so the filter skips
        # "outer"; it must fire once "inner" adds that head in a
        # *descendant* class under the root's unchanged sqrt node.
        rules = [
            rw("inner", "(* a 1)", "(+ a 0)"),
            rw("outer", "(sqrt (+ q 0))", "(exp q)"),
        ]
        g = EGraph()
        root = g.add_expr(parse_expr("(sqrt (* x 1))"))
        run_rules(g, rules, RunnerLimits(max_iterations=6))
        assert g.represents(root, parse_expr("(exp x)"))
        assert g.represents(root, parse_expr("(sqrt (+ x 0))"))

    @pytest.mark.parametrize("name,ty,seed", FILTER_CASES)
    def test_skipped_rules_find_nothing(self, name, ty, seed, monkeypatch):
        """Each rule skipped at an iteration's search phase would have
        returned no matches from that iteration's graph."""
        rules = _rules_for(get_target(name))
        real_heads = EGraph.heads
        skipped = []

        def checked_heads(egraph):
            present = real_heads(egraph)
            for rule in rules:
                if not present >= rule.heads:
                    assert search_pattern(egraph, rule.lhs) == [], rule.name
                    skipped.append(rule.name)
            return present

        monkeypatch.setattr(EGraph, "heads", checked_heads)
        egraph = _generated_graph(get_target(name), ty, seed)
        report = run_rules(egraph, rules, DEFAULT_ISEL_LIMITS)
        assert report.iterations >= 2
        assert skipped  # the filter did skip rules on this input

    @pytest.mark.parametrize("name,ty,seed", FILTER_CASES)
    def test_same_graph_as_searching_every_rule(self, name, ty, seed,
                                                monkeypatch):
        target = get_target(name)
        rules = _rules_for(target)
        filtered = _generated_graph(target, ty, seed)
        filtered_report = run_rules(filtered, rules, DEFAULT_ISEL_LIMITS)

        # A graph that claims every head any rule needs: nothing is skipped.
        every_head = frozenset().union(*(rule.heads for rule in rules))
        monkeypatch.setattr(EGraph, "heads", lambda egraph: every_head)
        full = _generated_graph(target, ty, seed)
        full_report = run_rules(full, rules, DEFAULT_ISEL_LIMITS)

        assert _graph_state(filtered) == _graph_state(full)
        for field in ("iterations", "stop_reason", "matches_found",
                      "matches_applied", "rule_matches", "rules_truncated"):
            assert getattr(filtered_report, field) == getattr(full_report, field)
        assert filtered_report.searches < full_report.searches


class TestCompiledPrograms:
    """Each rule's generated search returns what the brute-force reference
    matcher (``tests/ematch_reference.py``) returns, in the same order, and
    its fused applied filter keeps exactly the matches the reference's
    rhs lookup calls graph-changing."""

    @pytest.mark.parametrize("name,ty,seed", FILTER_CASES)
    def test_programs_match_reference(self, name, ty, seed):
        target = get_target(name)
        rules = _rules_for(target)
        egraph = _generated_graph(target, ty, seed)
        # A saturated graph (merged classes, already-applied matches) small
        # enough for the brute-force reference.
        run_rules(egraph, rules, RunnerLimits(max_iterations=3, max_nodes=400))
        kept = rejected = 0
        for rule in rules:
            expected = reference_matches(egraph, rule.lhs)
            assert search_pattern(egraph, rule.lhs) == expected, rule.name
            for limit in (0, 1, 3):
                assert search_pattern(egraph, rule.lhs, limit=limit) == (
                    expected[:limit]
                ), rule.name
            effective = [
                match for match in expected
                if not reference_applied(egraph, rule.rhs, match)
            ]
            program = rule_program(rule.lhs, rule.rhs)
            assert program.matches(egraph) == effective, rule.name
            assert program.matches(egraph, 2) == effective[:2], rule.name
            kept += len(effective)
            rejected += len(expected) - len(effective)
        assert kept and rejected

    ROOT_KINDS = [
        # (lhs, rhs): bare-variable and literal lhs roots; variable,
        # literal and constant rhs roots; rhs leaves absent from the graph.
        ("a", "(neg (neg a))"),
        ("1", "(exp 0)"),
        ("(* a 1)", "a"),
        ("(- a a)", "0"),
        ("(/ a a)", "1"),
        ("(acos -1)", "PI"),
        ("(exp 0)", "E"),
        ("(+ a b)", "(+ b 7)"),
    ]

    @pytest.mark.parametrize("lhs,rhs", ROOT_KINDS)
    def test_root_kinds(self, lhs, rhs):
        egraph = EGraph()
        for text in ("(+ (* x 1) (- y y))", "(exp 0)", "(acos -1)", "PI"):
            egraph.add_expr(parse_expr(text))
        # Two already-applied matches: x = (neg (neg x)) and (/ x x) = 1.
        for left, right in (("x", "(neg (neg x))"), ("(/ x x)", "1")):
            egraph.union(egraph.add_expr(parse_expr(left)),
                         egraph.add_expr(parse_expr(right)))
        egraph.rebuild()
        lhs_expr, rhs_expr = parse_expr(lhs), parse_expr(rhs)
        expected = reference_matches(egraph, lhs_expr)
        assert expected
        assert search_pattern(egraph, lhs_expr) == expected
        program = rule_program(lhs_expr, rhs_expr)
        assert program.matches(egraph) == [
            match for match in expected
            if not reference_applied(egraph, rhs_expr, match)
        ]
        _class_id, subst = expected[-1]
        built = program.instantiate(egraph.add_node, subst)
        assert reference_lookup(egraph, rhs_expr, subst) == built

    def test_arity_absent_leaves_and_an_unrebuilt_graph(self):
        x, a, b = Var("x"), Var("a"), Var("b")
        twice = App("neg", (App("neg", (x,)),))
        egraph = EGraph()
        for expr in (App("f", (x,)), App("f", (x, Var("y"))), twice):
            egraph.add_expr(expr)
        # Left pending: the hashcons still maps (neg (neg x)) to the
        # merged-away class, so the applied check must canonicalize.
        egraph.union(egraph.lookup_expr(x), egraph.lookup_expr(twice))
        cases = [
            (App("f", (a, b)), App("f", (b, a))),  # only the binary f
            (a, App("neg", (App("neg", (a,)),))),
            (Num(7), Num(8)),  # an absent lhs leaf, at the root
            (App("f", (a, Num(7))), a),  # and under an operator
        ]
        for lhs, rhs in cases:
            expected = reference_matches(egraph, lhs)
            assert search_pattern(egraph, lhs) == expected
            assert rule_program(lhs, rhs).matches(egraph) == [
                match for match in expected
                if not reference_applied(egraph, rhs, match)
            ]
        assert search_pattern(egraph, cases[1][0]) != (
            rule_program(*cases[1]).matches(egraph)
        )

    def test_programs_shared_per_rule_and_code_per_shape(self):
        rule = rw("comm", "(+ a b)", "(+ b a)")
        twin = rw("comm-again", "(+ a b)", "(+ b a)")
        other = rw("mul-comm", "(* p q)", "(* q p)")
        program = rule_program(rule.lhs, rule.rhs)
        assert rule_program(twin.lhs, twin.rhs) is program
        shaped = rule_program(other.lhs, other.rhs)
        assert shaped is not program
        assert shaped.search.__code__ is program.search.__code__

    def test_deep_pattern_rejected_with_a_clear_error(self):
        deep = "x"
        for _ in range(25):
            deep = f"(neg {deep})"
        with pytest.raises(ValueError, match="operator nodes"):
            search_pattern(EGraph(), parse_expr(deep.replace("x", "a")))


class TestHashSeedDeterminism:
    def test_stable_under_pythonhashseed(self):
        script = (
            "from repro.egraph import EGraph, run_rules, RunnerLimits, "
            "TypedExtractor, extract_variants\n"
            "from repro.core.isel import _rules_for\n"
            "from repro.cost.model import TargetCostModel\n"
            "from repro.ir import parse_expr\n"
            "from repro.ir.printer import expr_to_sexpr\n"
            "t = get_target('c99')\n"
            "e = parse_expr('(- (sqrt (+ x 1)) (sqrt x))')\n"
            "g = EGraph(); root = g.add_expr(e)\n"
            "limits = RunnerLimits(max_iterations=3, max_nodes=500, "
            "max_matches_per_rule=60)\n"
            "run_rules(g, _rules_for(t), limits)\n"
            "ex = TypedExtractor(g, TargetCostModel(t), {'x': 'binary64'})\n"
            "for v in extract_variants(g, ex, root, 'binary64'):\n"
            "    print(expr_to_sexpr(v))\n"
        )
        script = "from repro.targets import get_target\n" + script
        outputs = []
        for seed in ("0", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = SRC + os.pathsep * bool(
                env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestClockIndependence:
    """Saturations never read the clock: under a clock that jumps 1000 s
    per read, isel and cost opportunity return what they return
    otherwise, and every run's counters match."""

    def _select(self, monkeypatch, name: str, target_name: str) -> tuple:
        reports = []

        def recording(egraph, rules, limits=None):
            report = run_rules(egraph, rules, limits)
            reports.append(dataclasses.asdict(report))
            return report

        monkeypatch.setattr(isel, "run_rules", recording)
        monkeypatch.setattr(opportunity, "run_rules", recording)
        target, core = get_target(target_name), core_named(name)
        program = transcribe_with_poly(core.body, target, core.precision)
        var_types = dict(core.arg_types)
        variants = instruction_select(
            program, target, ty=core.precision, var_types=var_types
        )
        opportunities = cost_opportunities(
            program, target, core.precision, var_types
        )
        return [expr_to_sexpr(v) for v in variants], opportunities, reports

    @pytest.mark.parametrize(
        "name,target_name", [("sqrt-sub", "c99"), ("x-sub-sin", "fdlibm")]
    )
    def test_default_limits_ignore_the_clock(self, name, target_name,
                                             monkeypatch, jumping_clock):
        steady = self._select(monkeypatch, name, target_name)
        jumping_clock()
        jumped = self._select(monkeypatch, name, target_name)
        assert len(steady[2]) == 2  # one isel and one opportunity run
        assert jumped == steady


class TestFrozenLimits:
    def test_default_config_limits_cannot_be_mutated(self):
        before = config_fingerprint(CompileConfig(), None)
        config = CompileConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.isel_limits.max_nodes = 10
        assert DEFAULT_ISEL_LIMITS.max_nodes == 2500
        assert config_fingerprint(CompileConfig(), None) == before


def _random_egraph(seed: int) -> EGraph:
    """A randomized, rebuilt e-graph for extractor parity testing."""
    rng = random.Random(seed)
    g = EGraph()
    leaves = ["a", "b", "c", "0", "1", "2"]
    ops = [("+", 2), ("*", 2), ("-", 2), ("sqrt", 1), ("neg", 1)]
    ids = [g.add_expr(parse_expr(leaf)) for leaf in leaves]
    for _ in range(rng.randrange(10, 40)):
        op, arity = rng.choice(ops)
        args = tuple(rng.choice(ids) for _ in range(arity))
        ids.append(g.add_node(op, args))
    for _ in range(rng.randrange(0, 8)):
        g.union(rng.choice(ids), rng.choice(ids))
    g.rebuild()
    return g


def _reference_typed_best(egraph, model, var_types):
    """The seed TypedExtractor fixpoint (whole-graph sweeps)."""
    from repro.egraph.enode import is_op_head

    best = {}

    def options(node):
        head, args = node
        if is_op_head(head):
            signature = model.operator_signature(head)
            if signature is None:
                return
            arg_types, ret_type = signature
            if len(arg_types) != len(args):
                return
            total = model.operator_cost(head)
            for arg, arg_ty in zip(args, arg_types):
                entry = best.get(egraph.find(arg), {}).get(arg_ty)
                if entry is None:
                    return
                total += entry[0]
            yield ret_type, total, arg_types
            return
        tag = head[0]
        if tag == "var":
            ty = var_types.get(head[1])
            if ty is not None:
                yield ty, model.variable_cost(ty), ()
        elif tag in ("num", "const"):
            if tag == "const" and head[1] in ("TRUE", "FALSE", "NAN"):
                return
            for ty in model.literal_types():
                yield ty, model.literal_cost(ty), ()

    changed = True
    while changed:
        changed = False
        for eclass in egraph.classes():
            cid = egraph.find(eclass.id)
            table = best.setdefault(cid, {})
            for node in eclass.nodes:
                for ty, cost, arg_types in options(node):
                    current = table.get(ty)
                    if current is None or cost < current[0]:
                        table[ty] = (cost, node, arg_types)
                        changed = True
    return best


class _SizeModel:
    """Every node costs 1 at binary64: typed extraction priced by AST size.

    Unlike a target's model, it prices the real operators the random graphs
    are built from, so every class with a finite term is extractable.
    """

    def operator_signature(self, op):
        arity = {"+": 2, "*": 2, "-": 2, "sqrt": 1, "neg": 1}.get(op)
        return None if arity is None else (("binary64",) * arity, "binary64")

    def operator_cost(self, op):
        return 1.0

    def literal_types(self):
        return ("binary64",)

    def literal_cost(self, ty):
        return 1.0

    def variable_cost(self, ty):
        return 1.0


class TestWorklistExtractorParity:
    @pytest.mark.parametrize("seed", range(25))
    def test_size_costs_match_fixpoint(self, seed):
        g = _random_egraph(seed)
        var_types = {"a": "binary64", "b": "binary64", "c": "binary64"}
        reference = _reference_typed_best(g, _SizeModel(), var_types)
        extractor = TypedExtractor(g, _SizeModel(), var_types)
        for eclass in g.classes():
            cid = g.find(eclass.id)
            expected = reference.get(cid, {}).get("binary64")
            got = extractor.cost_of(cid, "binary64")
            if expected is None:
                assert got is None
            else:
                assert got == expected[0]
                # The extracted expression must realize the best cost and
                # actually be represented by the class.
                expr = extractor.extract(cid, "binary64")
                assert expr.size() == expected[0]
                assert g.represents(cid, expr)

    @pytest.mark.parametrize("seed", range(10))
    def test_typed_costs_match_fixpoint(self, seed):
        g = _random_egraph(seed)
        model = TargetCostModel(get_target("c99"))
        var_types = {"a": "binary64", "b": "binary64", "c": "binary64"}
        reference = _reference_typed_best(g, model, var_types)
        extractor = TypedExtractor(g, model, var_types)
        for eclass in g.classes():
            cid = g.find(eclass.id)
            expected = {
                ty: entry[0] for ty, entry in reference.get(cid, {}).items()
            }
            got = {
                ty: extractor.cost_of(cid, ty)
                for ty in extractor.available_types(cid)
            }
            assert got == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_num_nodes_accounting(self, seed):
        g = _random_egraph(seed)
        assert g.num_nodes == sum(len(c.nodes) for c in g.classes())

    @pytest.mark.parametrize("seed", range(10))
    def test_head_index_matches_scan(self, seed):
        g = _random_egraph(seed)
        for op in ("+", "*", "sqrt", "neg", "-"):
            indexed = set(g.classes_with_head(op))
            scanned = {
                g.find(eclass.id)
                for eclass in g.classes()
                if any(node[0] == op for node in eclass.nodes)
            }
            assert indexed == scanned

    def test_snapshot_reused_across_cost_functions(self):
        g = _random_egraph(3)
        var_types = {"a": "binary64", "b": "binary64", "c": "binary64"}
        first = TypedExtractor(g, TargetCostModel(get_target("c99")), var_types)
        second = TypedExtractor(g, TargetCostModel(get_target("avx")), var_types)
        assert first.snapshot is second.snapshot
        g.add_expr(parse_expr("(+ a (* b c))"))
        third = TypedExtractor(g, first.cost_model, var_types)
        assert third.snapshot is not first.snapshot


class TestRunnerSatellites:
    def test_search_phase_polls_deadline(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ (+ a b) (+ c d))"))
        rules = [
            rw("comm", "(+ a b)", "(+ b a)"),
            rw("grow", "(+ a b)", "(+ (* a a) b)"),
        ]
        with pytest.raises(DeadlineExceeded):
            with deadline(0.0001):
                import time

                time.sleep(0.001)
                run_rules(g, rules, RunnerLimits(max_iterations=50,
                                                 max_nodes=10**6))

    def test_truncation_reported(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ (+ (+ a b) (+ c d)) (+ (+ e f) (+ g h)))"))
        rules = [rw("comm", "(+ a b)", "(+ b a)")]
        report = run_rules(
            g, rules,
            RunnerLimits(max_iterations=1, max_matches_per_rule=3),
        )
        assert report.rules_truncated.get("comm", 0) >= 1
        assert report.matches_found == 3

    def test_no_truncation_not_reported(self):
        g = EGraph()
        g.add_expr(parse_expr("(+ x 0)"))
        report = run_rules(g, [rw("id", "(+ a 0)", "a")])
        assert report.rules_truncated == {}


class TestExtractionError:
    def test_carries_class_and_cost_name(self):
        g = EGraph()
        x = g.add_expr(parse_expr("x"))
        root = g.add_node("myop", (x,))  # no target implements myop
        extractor = TypedExtractor(
            g, TargetCostModel(get_target("c99")), {"x": "binary64"}
        )
        assert extractor.cost_of(x, "binary64") is not None
        with pytest.raises(ExtractionError) as excinfo:
            extractor.extract(root, "binary64")
        assert excinfo.value.class_id == g.find(root)
        assert excinfo.value.cost_name == "TargetCostModel"
        assert str(excinfo.value).startswith("e-class")
        # Still a KeyError for pre-v2 handlers.
        assert isinstance(excinfo.value, KeyError)

    def test_typed_extraction_error_carries_type(self):
        g = EGraph()
        root = g.add_expr(parse_expr("(+ x y)"))
        extractor = TypedExtractor(
            g, TargetCostModel(get_target("c99")), {}
        )  # no var types: nothing is extractable
        with pytest.raises(ExtractionError) as excinfo:
            extractor.extract(root, "binary64")
        assert excinfo.value.ty == "binary64"
        assert excinfo.value.class_id == g.find(root)

    def test_isel_skips_unextractable_candidates(self):
        # A candidate whose *grandchild* class turns out unextractable
        # passes multi-extraction's direct-arg feasibility pre-check but
        # raises ExtractionError during node_to_expr; it must be skipped
        # as one lost candidate, not crash the whole variant set.
        target = get_target("c99")
        g = EGraph()
        root = g.add_expr(parse_expr("(+ (* x y) z)"))
        run_rules(g, _rules_for(target), SMALL)
        types = {"x": "binary64", "y": "binary64", "z": "binary64"}
        extractor = TypedExtractor(g, TargetCostModel(target), types)
        baseline = extract_variants(g, extractor, root, "binary64")
        assert baseline
        x_class = g.find(g.lookup_expr(parse_expr("x")))
        extractor.best[x_class] = {}  # simulate an unextractable child
        degraded = extract_variants(g, extractor, root, "binary64")
        assert len(degraded) < len(baseline)


class TestRulesCache:
    """The rule list is cached per target object, not per target name."""

    REMOVED = ("hypot.f64", "fma.f64", "expm1.f64", "log1p.f64")

    def _derived(self):
        return get_target("c99").extend("c99", remove_operators=self.REMOVED)

    def _payload(self, target) -> dict:
        config = CompileConfig(iterations=1, localize_points=8)
        with ChassisSession(
            config=config, sample_config=SampleConfig(n_train=16, n_test=16)
        ) as session:
            result = session.compile(core_named("expm1-naive"), target)
        payload = result_to_dict(result)
        payload.pop("elapsed")
        return payload

    def test_derived_target_gets_its_own_rules(self):
        builtin, derived = get_target("c99"), self._derived()
        _rules_for(builtin)
        names = {rule.name for rule in _rules_for(derived)}
        lowered = {name for name in names if name.startswith("lower-")}
        assert lowered == {f"lower-{op}" for op in derived.operators}
        assert "lower-hypot.f64" in {r.name for r in _rules_for(builtin)}

    def test_opportunity_rules_cached_per_target_in_order(self):
        from repro.rules import opportunity_rules

        builtin, derived = get_target("c99"), self._derived()
        rules = opportunity._rules_for(builtin)
        assert opportunity._rules_for(builtin) is rules
        assert [r.name for r in rules] == [
            r.name
            for r in list(opportunity_rules()) + builtin.desugar_rules()
        ]
        assert "lower-hypot.f64" in {r.name for r in rules}
        assert "lower-hypot.f64" not in {
            r.name for r in opportunity._rules_for(derived)
        }

    def test_builtin_payload_ignores_prior_same_named_compile(
        self, monkeypatch
    ):
        monkeypatch.setattr(isel, "_RULES_CACHE", {})
        fresh = self._payload(get_target("c99"))
        monkeypatch.setattr(isel, "_RULES_CACHE", {})
        self._payload(self._derived())
        assert self._payload(get_target("c99")) == fresh


class TestEngineStats:
    def test_sink_collects_run_counters(self):
        stats = EngineStats()
        with engine_stats_sink(stats):
            g = EGraph()
            g.add_expr(parse_expr("(+ (+ x 0) 0)"))
            run_rules(g, [rw("id", "(+ a 0)", "a")])
        assert stats.saturations == 1
        assert stats.matches_applied >= 2
        assert stats.searches >= 1
        assert stats.stop_reasons == {"saturated": 1}
        assert stats.enodes_built >= 0
        assert stats.any()

    def test_rebuild_counters_repeat_and_match_spans(self):
        from repro.obs.trace import Trace, tracing

        target = get_target("c99")
        runs = []
        for _ in range(2):
            stats, trace = EngineStats(), Trace(name="rebuild")
            with engine_stats_sink(stats), tracing(trace):
                report = run_rules(_generated_graph(target, "binary64", 2),
                                   _rules_for(target), DEFAULT_ISEL_LIMITS)
            rebuilds = trace.find("egraph.rebuild")
            assert len(rebuilds) == report.iterations
            assert sum(s["attrs"]["repairs"] for s in rebuilds) == (
                stats.rebuild_repairs
            )
            assert sum(s["attrs"]["stale_nodes"] for s in rebuilds) == (
                stats.rebuild_stale_nodes
            )
            runs.append((stats.rebuild_repairs, stats.rebuild_stale_nodes))
        assert runs[0] == runs[1]
        assert all(runs[0])

    def test_sink_restored_after_region(self):
        from repro.egraph import current_sink

        stats = EngineStats()
        assert current_sink() is None
        with engine_stats_sink(stats):
            assert current_sink() is stats
        assert current_sink() is None

    def test_merge(self):
        a = EngineStats(enodes_built=5, rules_truncated={"x": 1})
        b = EngineStats(enodes_built=2, rules_truncated={"x": 2, "y": 1})
        a.merge(b)
        assert a.enodes_built == 7
        assert a.rules_truncated == {"x": 3, "y": 1}

    def test_session_surfaces_engine_counters(self):
        from repro.accuracy.sampler import SampleConfig
        from repro.core.loop import CompileConfig
        from repro.session import ChassisSession

        session = ChassisSession(
            config=CompileConfig(
                iterations=1, localize_points=4,
                isel_limits=RunnerLimits(max_iterations=2, max_nodes=400,
                                         max_matches_per_rule=60),
            ),
            sample_config=SampleConfig(n_train=8, n_test=8),
        )
        session.compile(
            "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))",
            "c99",
        )
        engine = session.stats.as_dict()["engine"]
        assert engine["enodes_built"] > 0
        assert engine["saturations"] > 0
        assert engine["matches_applied"] > 0
        assert engine["rebuild_repairs"] > 0
