"""The cost-opportunity heuristic (paper section 5.2, figure 5).

Local error finds *inaccurate* subexpressions; cost opportunity finds
subexpressions where rewriting could make the program *faster*.  Naively,
"expensive" nodes are poor candidates — a transcendental call is expensive
no matter what.  Cost opportunity instead asks how much a node's cost drops
under a cheap, AST-non-growing ("simplifying") saturation, *minus* the drop
attributable to its children, so a node is never credited for savings that
happen inside its arguments (otherwise the program root always wins).
"""

from __future__ import annotations

import weakref

from ..egraph.egraph import EGraph
from ..egraph.runner import RunnerLimits, run_rules
from ..egraph.typed_extract import TypedExtractor
from ..ir.expr import App, Expr
from ..ir.types import F64
from ..rules.registry import opportunity_rules
from ..targets.target import Target
from .model import TargetCostModel

Path = tuple[int, ...]

#: Lightweight limits: the analysis runs over *every* subexpression, so the
#: paper keeps this pass much cheaper than the real rewrite pass.
_LIGHT_LIMITS = RunnerLimits(max_iterations=3, max_nodes=1200, max_matches_per_rule=150)

# Keyed by target identity and evicted with the target, like
# ``repro.core.isel._rules_for``'s cache.
_RULES_CACHE: dict[int, list] = {}


def _rules_for(target: Target) -> list:
    """The simplifying rules plus the target's desugaring rules, in that
    order (computed once per target)."""
    cached = _RULES_CACHE.get(id(target))
    if cached is None:
        cached = list(opportunity_rules()) + target.desugar_rules()
        _RULES_CACHE[id(target)] = cached
        weakref.finalize(target, _RULES_CACHE.pop, id(target), None)
    return cached


def infer_types(program: Expr, target: Target, ty: str = F64) -> dict[Path, str]:
    """The float format of every value node of a well-typed float program."""
    types: dict[Path, str] = {}
    _visit_types(program, (), ty, target, types)
    return types


def _visit_types(
    expr: Expr, path: Path, expected: str, target: Target, types: dict[Path, str]
) -> None:
    types[path] = expected
    if not isinstance(expr, App):
        return
    if expr.op == "if":
        for i in range(3):
            _visit_types(expr.args[i], path + (i,), expected, target, types)
        return
    opdef = target.operators.get(expr.op)
    if opdef is None:
        # Predicate/comparison: operands default to the program format.
        for i, arg in enumerate(expr.args):
            _visit_types(arg, path + (i,), expected, target, types)
        return
    types[path] = opdef.ret_type
    for i, (arg, arg_ty) in enumerate(zip(expr.args, opdef.arg_types)):
        _visit_types(arg, path + (i,), arg_ty, target, types)


def _insert(
    expr: Expr, path: Path, egraph: EGraph, class_of: dict[Path, int]
) -> int:
    """Add ``expr`` to ``egraph``, recording the class of every subexpression."""
    if isinstance(expr, App):
        args = [_insert(a, path + (i,), egraph, class_of)
                for i, a in enumerate(expr.args)]
        cid = egraph.add_node(expr.op, tuple(args))
    else:
        cid = egraph.add_expr(expr)
    class_of[path] = cid
    return cid


def cost_opportunities(
    program: Expr,
    target: Target,
    ty: str = F64,
    var_types: dict[str, str] | None = None,
    limits: RunnerLimits = _LIGHT_LIMITS,
) -> dict[Path, float]:
    """Cost opportunity of every operator node (paper figure 5).

    One e-graph holds the whole program (every subexpression is an e-class);
    simplifying identities plus the target's desugar/lower rules connect
    float operators to cheaper equivalents; typed extraction then prices the
    best available form of each subexpression.
    """
    model = TargetCostModel(target)
    var_types = var_types or {name: ty for name in program.free_vars()}

    egraph = EGraph()
    class_of: dict[Path, int] = {}
    _insert(program, (), egraph, class_of)
    run_rules(egraph, _rules_for(target), limits)

    extractor = TypedExtractor(egraph, model, var_types)
    node_types = infer_types(program, target, ty)

    deltas: dict[Path, float] = {}
    for path, node in program.subexprs():
        node_ty = node_types.get(path, ty)
        best = extractor.cost_of(class_of[path], node_ty)
        if best is None:
            deltas[path] = 0.0
            continue
        try:
            original = model.program_cost(node)
        except KeyError:
            deltas[path] = 0.0
            continue
        deltas[path] = max(0.0, original - best)

    opportunities: dict[Path, float] = {}
    for path, node in program.subexprs():
        if not isinstance(node, App) or node.op not in target.operators:
            continue
        child_delta = sum(
            deltas.get(path + (i,), 0.0) for i in range(len(node.args))
        )
        opportunities[path] = max(0.0, deltas.get(path, 0.0) - child_delta)
    return opportunities
