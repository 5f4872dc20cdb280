"""Equality saturation runner with resource limits (paper sections 3.3, 5.1).

Runs a rule set to saturation or until a node/iteration/match budget is
exhausted — the paper notes Chassis caps e-graphs at 8000 nodes; the default
here is smaller because pure Python is slower, and is configurable.

Each iteration searches only the rules that can match: a rule whose
left-hand side needs an operator, literal or constant head the graph does
not hold (:meth:`EGraph.heads`) is skipped, exactly as if its search had
found nothing.  A search runs the rule's generated program
(:func:`~repro.egraph.ematch.rule_program`), which skips matches that are
already applied (the rhs already sits in the matched class), so the
per-rule match cap counts only graph-changing matches.

A run never reads the clock: its result is a pure function of the graph,
the rules and the budget, so the same inputs give the same graph whatever
the machine load.  Both the search and apply phases poll the cooperative
job deadline (:func:`repro.deadline.check_deadline`), which fails the job
rather than truncating the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..deadline import check_deadline
from ..obs.trace import span
from .egraph import EGraph
from .ematch import rule_program
from .rewrite import Rewrite
from .stats import current_sink

#: How many match applications between deadline polls.
_APPLY_POLL_EVERY = 64


@dataclass(frozen=True)
class RunnerLimits:
    """Resource budget for one saturation run."""

    max_iterations: int = 6
    max_nodes: int = 4000
    max_matches_per_rule: int = 400


@dataclass
class RunnerReport:
    """What happened during a saturation run."""

    iterations: int = 0
    stop_reason: str = "saturated"
    matches_applied: int = 0
    rule_matches: dict[str, int] = field(default_factory=dict)
    #: Effective (graph-changing) matches found across all searches.
    matches_found: int = 0
    #: Rule name -> iterations whose search hit the per-rule match budget
    #: (``max_matches_per_rule``) and silently dropped matches.  Surfaced
    #: so node-budget tuning is observable in ``--json`` output.
    rules_truncated: dict[str, int] = field(default_factory=dict)
    #: Per-rule pattern searches run (rules skipped by the head filter
    #: are not searched).
    searches: int = 0
    #: E-nodes created during this run.
    enodes_built: int = 0
    #: Class repairs run by rebuilds, and the stale e-nodes (own nodes and
    #: parent entries holding a merged-away id) they re-canonicalized.
    rebuild_repairs: int = 0
    rebuild_stale_nodes: int = 0


def _flush_to_sink(report: RunnerReport) -> None:
    sink = current_sink()
    if sink is None:
        return
    sink.saturations += 1
    sink.enodes_built += report.enodes_built
    sink.matches_found += report.matches_found
    sink.matches_applied += report.matches_applied
    sink.searches += report.searches
    sink.rebuild_repairs += report.rebuild_repairs
    sink.rebuild_stale_nodes += report.rebuild_stale_nodes
    sink.stop_reasons[report.stop_reason] = (
        sink.stop_reasons.get(report.stop_reason, 0) + 1
    )
    for name, count in report.rules_truncated.items():
        sink.rules_truncated[name] = sink.rules_truncated.get(name, 0) + count


def run_rules(
    egraph: EGraph,
    rules: list[Rewrite],
    limits: RunnerLimits | None = None,
) -> RunnerReport:
    """Apply ``rules`` to saturation within ``limits``.

    Each iteration collects matches for *all* rules against the current
    e-graph, then applies them in a batch and rebuilds — the standard egg
    schedule, which keeps rule application order-independent within an
    iteration.

    When a tracer is armed (:mod:`repro.obs`), the run records one
    ``egraph.run_rules`` span (report counters as attributes) with nested
    ``egraph.search`` / ``egraph.apply`` / ``egraph.rebuild`` spans per
    iteration, so a slow saturation shows *which* step of which iteration
    the time went to.
    """
    with span("egraph.run_rules", rules=len(rules)) as run_span:
        report = _run_rules(egraph, rules, limits or RunnerLimits())
        if run_span is not None:
            run_span["attrs"].update(
                iterations=report.iterations,
                stop_reason=report.stop_reason,
                matches_found=report.matches_found,
                matches_applied=report.matches_applied,
                enodes_built=report.enodes_built,
            )
        return report


def _run_rules(
    egraph: EGraph, rules: list[Rewrite], limits: RunnerLimits
) -> RunnerReport:
    report = RunnerReport()
    nodes_at_start = egraph.nodes_built
    repairs_at_start, stale_at_start = egraph.repairs, egraph.stale_nodes

    def finish(stop_reason: str) -> RunnerReport:
        report.stop_reason = stop_reason
        report.enodes_built = egraph.nodes_built - nodes_at_start
        report.rebuild_repairs = egraph.repairs - repairs_at_start
        report.rebuild_stale_nodes = egraph.stale_nodes - stale_at_start
        _flush_to_sink(report)
        return report

    for iteration in range(limits.max_iterations):
        report.iterations = iteration + 1
        version_before = egraph.version
        nodes_before = egraph.num_nodes

        # Search phase: gather matches against a frozen view.  Collection
        # is bounded by the *remaining node budget* on top of the per-rule
        # match budget: the apply phase stops at ``max_nodes`` anyway, so
        # effective matches beyond the budget are wasted search time.
        batches = []
        collected = 0
        node_budget = limits.max_nodes - egraph.num_nodes
        # Searching adds no nodes, so the heads read here hold for the
        # whole phase; a rule needing an absent head would find nothing.
        present = egraph.heads()
        with span("egraph.search", iteration=iteration) as search_span:
            for rule in rules:
                check_deadline()
                if not present >= rule.heads:
                    continue
                cap = limits.max_matches_per_rule
                budget_left = node_budget - collected
                if budget_left <= 0:
                    # Whatever this rule would find cannot be applied this
                    # iteration.
                    continue
                if cap is None or budget_left < cap:
                    cap = budget_left
                report.searches += 1
                program = rule_program(rule.lhs, rule.rhs)
                matches = program.matches(egraph, cap + 1)
                if len(matches) > cap:
                    matches = matches[:cap]
                    report.rules_truncated[rule.name] = (
                        report.rules_truncated.get(rule.name, 0) + 1
                    )
                collected += len(matches)
                report.matches_found += len(matches)
                if matches:
                    batches.append((rule, program.instantiate, matches))
            if search_span is not None:
                search_span["attrs"]["matches"] = collected

        # Apply phase (polls the deadline as it goes).
        with span("egraph.apply", iteration=iteration) as apply_span:
            applied_total = 0
            add_node = egraph.add_node
            for rule, build, matches in batches:
                applied = 0
                for index, (class_id, subst) in enumerate(matches):
                    if egraph.num_nodes >= limits.max_nodes:
                        break
                    if index % _APPLY_POLL_EVERY == 0:
                        check_deadline()
                    if rule.condition is not None and not rule.condition(egraph, subst):
                        continue
                    new_id = build(add_node, subst)
                    egraph.union(egraph.find(class_id), new_id)
                    applied += 1
                if applied:
                    report.rule_matches[rule.name] = (
                        report.rule_matches.get(rule.name, 0) + applied
                    )
                    report.matches_applied += applied
                    applied_total += applied
            if apply_span is not None:
                apply_span["attrs"]["applied"] = applied_total

        with span("egraph.rebuild", iteration=iteration) as rebuild_span:
            repairs, stale = egraph.repairs, egraph.stale_nodes
            egraph.rebuild()
            if rebuild_span is not None:
                rebuild_span["attrs"].update(
                    repairs=egraph.repairs - repairs,
                    stale_nodes=egraph.stale_nodes - stale,
                )

        if egraph.num_nodes >= limits.max_nodes:
            return finish("node-limit")
        if egraph.version == version_before and egraph.num_nodes == nodes_before:
            return finish("saturated")

    return finish("iteration-limit")
