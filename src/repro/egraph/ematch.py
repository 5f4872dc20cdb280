"""E-matching: finding instances of a pattern inside an e-graph.

Patterns are ordinary :class:`~repro.ir.expr.Expr` trees in which
:class:`~repro.ir.expr.Var` nodes act as pattern variables.  A match binds
each pattern variable to an e-class id.  :func:`search_pattern` is the
one matcher: a backtracking search over the graph's per-generation
snapshot (sufficient at our e-graph sizes); egg's relational virtual
machine is an optimization of the same semantics.

Root candidates come from the e-graph's head index (O(candidates) instead
of O(classes)), and matches can be filtered by an ``accept`` predicate
*inside* the enumeration so match limits count only matches the caller
will keep.  :func:`pattern_heads` names the heads a pattern needs, which
lets the saturation runner skip a rule without searching when one of them
is absent from the graph.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..ir.expr import App, Expr, Var
from .egraph import EGraph
from .enode import head_of_expr

Subst = dict[str, int]


def pattern_heads(pattern: Expr) -> frozenset:
    """Every e-node head a match of ``pattern`` needs somewhere in the graph.

    The operator of each application and the head of each literal or
    constant leaf; pattern variables need none.  When one of them is missing
    from :meth:`EGraph.heads`, :func:`search_pattern` returns no matches.
    """
    return frozenset(
        head_of_expr(node)
        for _path, node in pattern.subexprs()
        if not isinstance(node, Var)
    )


def root_candidates(egraph: EGraph, pattern: Expr) -> list[int]:
    """Canonical e-class ids that could host a match of ``pattern``.

    App and leaf patterns resolve through the head index; a bare variable
    pattern matches every class.
    """
    if isinstance(pattern, App):
        return egraph.classes_with_head(pattern.op)
    if isinstance(pattern, Var):
        seen: dict[int, None] = {}
        for eclass in egraph.classes():
            seen[egraph.find(eclass.id)] = None
        return list(seen)
    return egraph.classes_with_head(head_of_expr(pattern))


# Compiled pattern forms (tuples, matched against a GraphSnapshot):
#   ("var", name)            pattern variable
#   ("leaf", class_id|None)  literal/constant, resolved to its class once
#   ("app", op, subpatterns) operator application
def _compile(egraph: EGraph, pattern: Expr):
    if isinstance(pattern, Var):
        return ("var", pattern.name)
    if isinstance(pattern, App):
        return ("app", pattern.op,
                tuple(_compile(egraph, a) for a in pattern.args))
    # A leaf matches exactly the class that holds it; resolving it here
    # turns every leaf check during the search into an int comparison.
    return ("leaf", egraph.lookup_node(head_of_expr(pattern), ()))


def _match_snapshot(snap, prog, class_id: int, subst: Subst) -> Iterator[Subst]:
    """Match a compiled pattern against one snapshot class.

    All ids are canonical at the snapshot's generation, so variable
    consistency and leaf checks are integer comparisons and no union-find
    or node-head filtering happens inside the hot loop.
    """
    tag = prog[0]
    if tag == "var":
        name = prog[1]
        bound = subst.get(name)
        if bound is None:
            new = dict(subst)
            new[name] = class_id
            yield new
        elif bound == class_id:
            yield subst
        return
    if tag == "leaf":
        if prog[1] == class_id:
            yield subst
        return
    subpats = prog[2]
    arity = len(subpats)
    for args in snap.by_head.get(class_id, _EMPTY).get(prog[1], ()):
        if len(args) != arity:
            continue
        yield from _match_snapshot_args(snap, subpats, args, 0, subst)


_EMPTY: dict = {}


def _match_snapshot_args(snap, subpats, args, index, subst) -> Iterator[Subst]:
    """Match the remaining subpatterns against sibling arg classes.

    Variable and leaf subpatterns are consumed inline (they bind or fail
    without branching), so generator recursion — the expensive part of the
    backtracking search — happens only at nested App subpatterns.
    """
    n = len(subpats)
    binds = None
    while index < n:
        prog = subpats[index]
        tag = prog[0]
        if tag == "var":
            name = prog[1]
            class_id = args[index]
            bound = subst.get(name)
            if bound is None and binds is not None:
                bound = binds.get(name)
            if bound is None:
                if binds is None:
                    binds = {}
                binds[name] = class_id
            elif bound != class_id:
                return
        elif tag == "leaf":
            if prog[1] != args[index]:
                return
        else:
            break
        index += 1
    if binds:
        subst = {**subst, **binds}
    if index == n:
        yield subst
        return
    for sub in _match_snapshot(snap, subpats[index], args[index], subst):
        yield from _match_snapshot_args(snap, subpats, args, index + 1, sub)


def search_pattern(
    egraph: EGraph,
    pattern: Expr,
    limit: int | None = None,
    accept: Callable[[int, Subst], bool] | None = None,
) -> list[tuple[int, Subst]]:
    """Find matches of ``pattern`` anywhere in the e-graph.

    Returns ``(class_id, subst)`` pairs; ``class_id`` is the class the whole
    pattern matched in.  ``limit`` bounds the number of matches collected.
    ``accept`` filters matches during enumeration; rejected matches do not
    count against ``limit``, so a truncated search is truncated at the same
    *kept* match regardless of how many rejected ones the enumeration
    passed over.

    The search runs against the graph's per-generation snapshot with the
    pattern compiled once, so repeated searches of one saturation iteration
    share all canonicalization work.
    """
    results: list[tuple[int, Subst]] = []
    snap = egraph.snapshot()
    prog = _compile(egraph, pattern)
    seen: set[int] = set()
    for class_id in root_candidates(egraph, pattern):
        canon = egraph.find(class_id)
        if canon in seen:
            continue
        seen.add(canon)
        for subst in _match_snapshot(snap, prog, canon, {}):
            if accept is not None and not accept(canon, subst):
                continue
            results.append((canon, subst))
            if limit is not None and len(results) >= limit:
                return results
    return results


def lookup_template(
    egraph: EGraph, template: Expr, subst: Subst
) -> int | None:
    """The e-class ``template`` (under ``subst``) already occupies, if any.

    The read-only twin of :func:`instantiate`: returns None as soon as any
    node of the instantiated template is absent from the hashcons.
    """
    if isinstance(template, Var):
        return subst.get(template.name)
    if isinstance(template, App):
        args = []
        for arg in template.args:
            class_id = lookup_template(egraph, arg, subst)
            if class_id is None:
                return None
            args.append(class_id)
        return egraph.lookup_node(template.op, args)
    return egraph.lookup_node(head_of_expr(template), ())


def match_is_applied(
    egraph: EGraph, rhs: Expr, class_id: int, subst: Subst
) -> bool:
    """True when applying ``rhs`` at this match cannot change the e-graph.

    A rewrite application inserts the instantiated rhs and merges it with
    the matched class; when the rhs already exists *in that same class*,
    both steps are no-ops.  Matches stay applied forever (classes never
    un-merge), so the saturation runner filters them out of every search,
    and only graph-changing matches count against its per-rule match cap.
    """
    found = lookup_template(egraph, rhs, subst)
    return found is not None and egraph.same(found, class_id)


def instantiate(egraph: EGraph, template: Expr, subst: Subst) -> int:
    """Insert ``template`` (with pattern vars bound by ``subst``) and return
    its e-class id."""
    if isinstance(template, Var):
        try:
            return subst[template.name]
        except KeyError:
            raise KeyError(
                f"unbound pattern variable {template.name!r} in rewrite rhs"
            ) from None
    if isinstance(template, App):
        args = tuple(instantiate(egraph, a, subst) for a in template.args)
        return egraph.add_node(template.op, args)
    return egraph.add_node(head_of_expr(template), ())
