"""Multi-extraction: one candidate per appropriately-typed e-node (paper 5.2).

Extracting only the single cheapest program would over-optimize for speed at
the cost of accuracy.  Chassis instead extracts *every* appropriately-typed
e-node of the localized subexpression's e-class — each completed greedily
with the typed-extraction table — yielding a spread of candidates (the paper
reports about 40 per subexpression) whose accuracy is then measured.
"""

from __future__ import annotations

from ..ir.expr import Expr
from .egraph import EGraph
from .enode import is_op_head
from .typed_extract import ExtractionError, TypedExtractor


def extract_variants(
    egraph: EGraph,
    extractor: TypedExtractor,
    class_id: int,
    ty: str,
    limit: int = 40,
) -> list[Expr]:
    """All well-typed variants of ``class_id`` at format ``ty``.

    One expression per costable e-node in the class, cheapest first, capped
    at ``limit``.  The overall-best expression is always first.
    """
    class_id = egraph.find(class_id)
    cost_model = extractor.cost_model
    options: list[tuple[float, Expr]] = []
    seen: set[Expr] = set()

    for node in egraph.nodes_of(class_id):
        head, args = node
        if is_op_head(head):
            signature = cost_model.operator_signature(head)
            if signature is None:
                continue
            arg_types, ret_type = signature
            if ret_type != ty or len(arg_types) != len(args):
                continue
            cost = cost_model.operator_cost(head)
            feasible = True
            for arg, arg_ty in zip(args, arg_types):
                child = extractor.cost_of(arg, arg_ty)
                if child is None:
                    feasible = False
                    break
                cost += child
            if not feasible:
                continue
            try:
                expr = extractor.node_to_expr(node, arg_types)
            except ExtractionError:
                # A child class became unextractable at the needed format
                # (e.g. every option priced infeasible): skip the
                # candidate rather than losing the whole variant set.
                continue
        else:
            entry = extractor.best.get(class_id, {}).get(ty)
            if entry is None or entry[1] != node:
                # Leaf nodes are only interesting if they are the best choice.
                continue
            cost, expr = entry[0], extractor.node_to_expr(node, ())
        if expr not in seen:
            seen.add(expr)
            options.append((cost, expr))

    options.sort(key=lambda pair: pair[0])
    return [expr for _cost, expr in options[:limit]]
