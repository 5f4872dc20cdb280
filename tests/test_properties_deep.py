"""Deeper hypothesis property tests on the core data structures.

These complement the per-module unit tests with randomized invariants: the
interval oracle's enclosure property across all unary operators, e-graph
congruence under random union sequences, and cost-model consistency between
typed extraction and static costing.
"""

import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from repro.cost import TargetCostModel
from repro.egraph import EGraph, TypedExtractor, run_rules
from repro.ir import F64, parse_expr
from repro.rival.interval import INTERVAL_OPS, Interval
from repro.targets.synth import _MP_OPS

# --- interval enclosure across every unary operator ------------------------------

_UNARY_OPS = [
    name
    for name, fn in INTERVAL_OPS.items()
    if name in _MP_OPS and name not in ("+", "-", "*", "/", "pow", "atan2",
                                        "hypot", "fmin", "fmax", "copysign",
                                        "fmod")
]

_values = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@given(st.sampled_from(_UNARY_OPS), _values)
@settings(max_examples=200, deadline=None)
def test_unary_interval_encloses_true_value(op_name, x):
    """For every unary op: the interval at a point contains the true value."""
    interval = INTERVAL_OPS[op_name](Interval.point(x), 80)
    if interval.err:
        return  # domain violations are allowed to flag instead of enclose
    try:
        with mp.workprec(120):
            true = _MP_OPS[op_name](mp, mpf(x))
    except (ValueError, ZeroDivisionError, mpmath.libmp.ComplexResult):
        return
    if isinstance(true, mpmath.mpc) or mpmath.isnan(true):
        return
    assert interval.contains(true._mpf_), (op_name, x)


@given(_values, _values)
@settings(max_examples=100, deadline=None)
def test_binary_interval_encloses(x, y):
    for op_name in ("+", "-", "*"):
        interval = INTERVAL_OPS[op_name](Interval.point(x), Interval.point(y), 80)
        with mp.workprec(120):
            true = _MP_OPS[op_name](mp, mpf(x), mpf(y))
        assert interval.err or interval.contains(true._mpf_)


# --- e-graph congruence under random unions ------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12))
@settings(max_examples=80, deadline=None)
def test_congruence_closure_random_unions(pairs):
    """After any union sequence + rebuild, congruence holds: equal children
    imply equal parents."""
    g = EGraph()
    leaves = [g.add_expr(parse_expr(f"v{i}")) for i in range(6)]
    parents = [g.add_expr(parse_expr(f"(sqrt v{i})")) for i in range(6)]
    for a, b in pairs:
        g.union(leaves[a], leaves[b])
    g.rebuild()
    for i in range(6):
        for j in range(6):
            if g.same(leaves[i], leaves[j]):
                assert g.same(parents[i], parents[j]), (i, j)


@given(st.lists(st.sampled_from(["(+ x y)", "(* x y)", "(+ y x)", "(sqrt x)",
                                 "(+ x 1)", "(* 2 x)"]), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_hashcons_no_duplicate_canonical_nodes(sources):
    """After inserts and a rebuild, no two classes contain the same
    canonical e-node."""
    g = EGraph()
    ids = [g.add_expr(parse_expr(src)) for src in sources]
    if len(ids) >= 2:
        g.union(ids[0], ids[-1])
    g.rebuild()
    seen = {}
    for eclass in g.classes():
        canonical_id = g.find(eclass.id)
        for node in eclass.nodes:
            canon = g.canonicalize(node)
            owner = seen.setdefault(canon, canonical_id)
            assert owner == canonical_id, f"node {canon} in two classes"


# --- typed extraction consistency ------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "(- (sqrt (+ x 1)) (sqrt x))",
        "(/ 1 (+ 1 (exp (neg x))))",
        "(* x (+ x 1))",
        "(log (/ (+ 1 x) (- 1 x)))",
    ],
)
def test_typed_extraction_cost_matches_static_cost(source, c99):
    """The cost typed extraction reports equals the static program cost of
    the expression it extracts (the two views must agree, since extraction
    *is* the cost model's optimizer)."""
    from repro.core.isel import _rules_for
    from repro.egraph import RunnerLimits

    expr = parse_expr(source)
    g = EGraph()
    root = g.add_expr(expr)
    run_rules(g, _rules_for(c99), RunnerLimits(max_iterations=3, max_nodes=1200))
    model = TargetCostModel(c99)
    extractor = TypedExtractor(g, model, {"x": F64})
    reported = extractor.cost_of(root, F64)
    assert reported is not None
    extracted = extractor.extract(root, F64)
    assert model.program_cost(extracted) == pytest.approx(reported)
