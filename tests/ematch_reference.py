"""A brute-force e-matching reference for differential tests.

Independent of the engine's compiled rule programs: it walks
:meth:`EGraph.nodes_of` recursively, left to right and depth first, and
checks an rhs through :meth:`EGraph.lookup_node` one node at a time.  Root
candidates come from the graph's head index (operator and leaf patterns)
or its class list (a bare variable), which fixes the order matches come
out in.
"""

from __future__ import annotations

from repro.egraph import EGraph
from repro.egraph.enode import head_of_expr
from repro.ir.expr import App, Expr, Var


def reference_matches(egraph: EGraph, pattern: Expr) -> list:
    """Every ``(class_id, subst)`` match of ``pattern``, in search order."""
    if isinstance(pattern, Var):
        roots = list(dict.fromkeys(egraph.find(c.id) for c in egraph.classes()))
    else:
        roots = egraph.classes_with_head(head_of_expr(pattern))
    return [
        (root, subst)
        for root in roots
        for subst in _match(egraph, pattern, root, {})
    ]


def _match(egraph: EGraph, pattern: Expr, class_id: int, subst: dict):
    if isinstance(pattern, Var):
        bound = subst.get(pattern.name)
        if bound is None:
            yield {**subst, pattern.name: class_id}
        elif bound == class_id:
            yield subst
    elif isinstance(pattern, App):
        for head, args in egraph.nodes_of(class_id):
            if head == pattern.op and len(args) == len(pattern.args):
                canon = [egraph.find(arg) for arg in args]
                yield from _match_args(egraph, pattern.args, canon, subst)
    elif egraph.lookup_node(head_of_expr(pattern), ()) == class_id:
        yield subst


def _match_args(egraph: EGraph, patterns, classes, subst: dict):
    if not patterns:
        yield subst
        return
    for partial in _match(egraph, patterns[0], classes[0], subst):
        yield from _match_args(egraph, patterns[1:], classes[1:], partial)


def reference_lookup(egraph: EGraph, template: Expr, subst: dict):
    """The class ``template`` under ``subst`` already occupies, or None."""
    if isinstance(template, Var):
        return subst[template.name]
    args = []
    for arg in template.args if isinstance(template, App) else ():
        class_id = reference_lookup(egraph, arg, subst)
        if class_id is None:
            return None
        args.append(class_id)
    head = template.op if isinstance(template, App) else head_of_expr(template)
    return egraph.lookup_node(head, args)


def reference_applied(egraph: EGraph, rhs: Expr, match) -> bool:
    """True when applying ``rhs`` at ``match`` cannot change the graph."""
    class_id, subst = match
    found = reference_lookup(egraph, rhs, subst)
    return found is not None and egraph.same(found, class_id)
