"""Rebuild skips canonical e-nodes without changing the graph.

:class:`repro.egraph.EGraph` re-canonicalizes only the e-nodes whose
arguments hold a merged-away class id.  These tests run it beside the
engine it replaced (``tests/egraph_reference.py``, which rebuilds every
node) through the same ``run_rules``, and compare after every rebuild:
the class partition, each class's nodes and parent entries in order, the
hashcons, the live-node count and a fresh snapshot's ``nodes``,
``by_head`` and ``parents`` in order.  Every ``RunnerReport`` must match
too, so the node budget stops both runs at the same place.
"""

import dataclasses

import egraph_reference
import pytest
from test_egraph_engine_v2 import FILTER_CASES, SMALL

from repro.benchsuite import core_named
from repro.benchsuite.generator import generate_core
from repro.core import loop
from repro.core.isel import DEFAULT_ISEL_LIMITS, _rules_for
from repro.core.transcribe import Untranscribable, transcribe_with_poly
from repro.egraph import EGraph, GraphSnapshot, RunnerLimits, run_rules
from repro.ir import parse_expr
from repro.session import ChassisSession
from repro.targets import get_target

ENGINES = (
    (EGraph, GraphSnapshot),
    (egraph_reference.EGraph, egraph_reference.GraphSnapshot),
)

#: A node budget every ``FILTER_CASES`` run exhausts: the runs stop on a
#: budget check, which must fall at the same place on both engines.
TIGHT = RunnerLimits(max_iterations=8, max_nodes=300)

#: The perfbench ``serve`` panel: six c99 cores at the default config.
SERVE_PANEL = (
    "sqrt-sub", "expm1-naive", "rcp-diff", "quad-disc",
    "harmonic-mean", "sum-sq-diff",
)


def _state(egraph, snapshot_cls) -> tuple:
    find = egraph.find
    ids = range(len(egraph._uf))
    snap = snapshot_cls(egraph)
    return (
        [find(i) for i in ids],
        [
            (class_id, list(eclass.nodes), list(eclass.parents))
            for class_id, eclass in egraph._classes.items()
        ],
        [(node, find(class_id)) for node, class_id in egraph._hashcons.items()],
        egraph.num_nodes,
        egraph.generation,
        list(snap.nodes.items()),
        [(class_id, list(heads.items())) for class_id, heads in snap.by_head.items()],
        list(snap.parents.items()),
    )


def _run_recorded(engine, build, rules, limits):
    """Run ``rules`` on a graph ``build`` fills, recording the state after
    every rebuild; returns the graph, the report and the states."""
    egraph_cls, snapshot_cls = engine
    egraph = egraph_cls()
    build(egraph)
    states = []
    rebuild = egraph.rebuild

    def recorded():
        rebuild()
        states.append(_state(egraph, snapshot_cls))

    egraph.rebuild = recorded
    report = run_rules(egraph, rules, limits)
    return egraph, report, states


def _assert_same_run(build, rules, limits):
    (graph, report, states), (_ref, ref_report, ref_states) = (
        _run_recorded(engine, build, rules, limits) for engine in ENGINES
    )
    assert len(states) == len(ref_states) == report.iterations
    for iteration, (got, want) in enumerate(zip(states, ref_states)):
        assert got == want, f"state differs after rebuild {iteration}"
    assert dataclasses.asdict(report) == dataclasses.asdict(ref_report)
    # The merged-away set is exactly the ids ``find`` moves.
    assert graph._dead == {
        i for i in range(len(graph._uf)) if graph.find(i) != i
    }
    return report


def _generated(target, ty: str, seed: int):
    core = generate_core(seed, n_vars=2, depth=4)
    try:
        lowered = transcribe_with_poly(core.body, target, ty)
    except Untranscribable:
        lowered = None

    def build(egraph):
        egraph.add_expr(core.body)
        if lowered is not None:
            egraph.add_expr(lowered)

    return build


@pytest.mark.parametrize("name,ty,seed", FILTER_CASES)
@pytest.mark.parametrize("limits", [DEFAULT_ISEL_LIMITS, SMALL, TIGHT],
                         ids=["default", "small", "tight"])
def test_filter_cases_match_reference(name, ty, seed, limits):
    target = get_target(name)
    report = _assert_same_run(
        _generated(target, ty, seed), _rules_for(target), limits
    )
    assert report.rebuild_stale_nodes > 0
    if limits is TIGHT:
        assert report.stop_reason == "node-limit"


def test_serve_panel_isel_graphs_match_reference(monkeypatch):
    """Every isel saturation that compiling the serve panel at the default
    configuration runs, replayed on both engines."""
    calls = {}
    real = loop.instruction_select

    def recording(subexpr, target, **kwargs):
        calls.setdefault((subexpr, target.name, kwargs["limits"]), target)
        return real(subexpr, target, **kwargs)

    monkeypatch.setattr(loop, "instruction_select", recording)
    with ChassisSession() as session:
        for name in SERVE_PANEL:
            session.compile(core_named(name), get_target("c99"))
    monkeypatch.undo()
    assert len(calls) >= 10
    for (subexpr, _name, limits), target in calls.items():
        _assert_same_run(
            lambda egraph: egraph.add_expr(subexpr), _rules_for(target), limits
        )


def test_canonical_nodes_are_returned_as_is():
    g = EGraph()
    a, b = g.add_expr(parse_expr("x")), g.add_expr(parse_expr("y"))
    node = ("+", (a, b))
    assert g.canonicalize(node) is node
    g.union(a, b)
    loser = b if g.find(a) == a else a
    assert g._dead == {loser}
    assert g.canonicalize(node) == ("+", (g.find(a), g.find(a)))
    # Insertion canonicalizes a stale argument before the hashcons lookup.
    assert g.add_node("+", (a, b)) == g.add_node("+", (b, a))
