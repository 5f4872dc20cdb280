"""Typed extraction over mixed real/float e-graphs (paper section 5.1).

After instruction selection modulo equivalence, an e-class mixes real-number
e-nodes, float e-nodes of several formats, and ill-typed combinations.  A
valid output program must be a *well-typed floating-point* expression, so
extraction must (a) skip real-operator e-nodes entirely and (b) respect each
float operator's argument formats.

Typed extraction generalizes greedy extraction by tracking, per e-class, one
lowest-cost expression *for every floating-point type*.  An e-node is
costable at type ``t`` when its operator returns ``t`` and each argument
class has a best expression at that argument's declared format.  Literals
are costable at every target-supported format (at the target's literal
cost); variables at their declared FPCore format.  ``cast`` operators in the
target move values between formats like any other operator.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Protocol

from ..ir.expr import App, Expr
from .egraph import EGraph
from .enode import ENode, head_to_leaf_expr, is_op_head
from .extract import ExtractionError


class TypedCostModel(Protocol):
    """What typed extraction needs to know about a target.

    Implemented by :class:`repro.cost.model.TargetCostModel`; defined as a
    protocol here so the e-graph layer has no dependency on targets.
    """

    def operator_signature(self, op: str) -> tuple[tuple[str, ...], str] | None:
        """(arg_types, ret_type) for a float operator, None for real ops."""
        ...

    def operator_cost(self, op: str) -> float:
        """Scalar cost of one float operator from the target description."""
        ...

    def literal_types(self) -> Iterable[str]:
        """Float formats at which literals/constants may be materialized."""
        ...

    def literal_cost(self, ty: str) -> float:
        """Cost of materializing a literal at format ``ty``."""
        ...

    def variable_cost(self, ty: str) -> float:
        """Cost of referencing a variable of format ``ty``."""
        ...


Best = dict[int, dict[str, tuple[float, ENode, tuple[str, ...]]]]


class TypedExtractor:
    """Per-type lowest-cost extraction (the paper's novel algorithm)."""

    def __init__(
        self,
        egraph: EGraph,
        cost_model: TypedCostModel,
        var_types: dict[str, str],
    ):
        self.egraph = egraph
        self.cost_model = cost_model
        self.cost_name = getattr(
            cost_model, "name", type(cost_model).__name__
        )
        self.var_types = dict(var_types)
        self.snapshot = egraph.snapshot()
        #: best[class][type] = (cost, enode, arg_types)
        self.best: Best = {}
        self._run()

    # --- worklist ---------------------------------------------------------------

    def _run(self) -> None:
        """Parents-driven worklist over the shared topology snapshot.

        The typed analogue of :meth:`repro.egraph.extract.Extractor._run`:
        a class whose per-type table gains or improves an entry pushes its
        parents, so each class is re-priced only when a child's table
        actually changed instead of on every whole-graph sweep.

        Each head's choices are looked up once per run (:meth:`_choices`);
        a node's arity is still checked against them.  ``args`` are
        canonical class ids (snapshot form), so child lookups go straight
        into the best tables without union-find calls.
        """
        best = self.best
        nodes = self.snapshot.nodes
        parents = self.snapshot.parents
        choices: dict = {}
        pending = deque(nodes)
        queued = set(pending)
        while pending:
            class_id = pending.popleft()
            queued.discard(class_id)
            table = best.setdefault(class_id, {})
            improved = False
            for head, args, node in nodes[class_id]:
                options = choices.get(head)
                if options is None:
                    options = choices[head] = self._choices(head)
                for ty, cost, arg_types in options:
                    if len(arg_types) != len(args):
                        continue
                    # Own cost first, then the children in order: the same
                    # float sums, so the tables stay bit-identical.
                    for arg, arg_ty in zip(args, arg_types):
                        entry = best.get(arg)
                        if entry is not None:
                            entry = entry.get(arg_ty)
                        if entry is None:
                            break
                        cost += entry[0]
                    else:
                        current = table.get(ty)
                        if current is None or cost < current[0]:
                            table[ty] = (cost, node, arg_types)
                            improved = True
            if improved:
                for parent in parents.get(class_id, ()):
                    if parent not in queued:
                        queued.add(parent)
                        pending.append(parent)

    def _choices(self, head) -> tuple[tuple[str, float, tuple[str, ...]], ...]:
        """``(ret_type, own_cost, arg_types)`` for each way to type a node
        with ``head``; a node's total adds its children's best costs at
        ``arg_types`` to ``own_cost``.  Empty when the head never extracts.
        """
        model = self.cost_model
        if is_op_head(head):
            signature = model.operator_signature(head)
            if signature is None:
                return ()  # real operator: never extracted
            arg_types, ret_type = signature
            return ((ret_type, model.operator_cost(head), arg_types),)
        tag = head[0]
        if tag == "var":
            ty = self.var_types.get(head[1])
            if ty is None:
                return ()
            return ((ty, model.variable_cost(ty), ()),)
        if tag == "const" and head[1] in ("TRUE", "FALSE", "NAN"):
            return ()
        if tag in ("num", "const"):
            return tuple(
                (ty, model.literal_cost(ty), ()) for ty in model.literal_types()
            )
        return ()

    # --- queries ------------------------------------------------------------------

    def cost_of(self, class_id: int, ty: str) -> float | None:
        """Best cost of an expression of type ``ty`` in the class, if any."""
        entry = self.best.get(self.egraph.find(class_id), {}).get(ty)
        return entry[0] if entry else None

    def available_types(self, class_id: int) -> list[str]:
        """Float formats at which this class has an extractable program."""
        return sorted(self.best.get(self.egraph.find(class_id), {}).keys())

    def extract(self, class_id: int, ty: str) -> Expr:
        """The lowest-cost well-typed expression of format ``ty``."""
        return self._build(self.egraph.find(class_id), ty, {})

    def _build(self, class_id: int, ty: str, memo: dict) -> Expr:
        key = (class_id, ty)
        cached = memo.get(key)
        if cached is not None:
            return cached
        entry = self.best.get(class_id, {}).get(ty)
        if entry is None:
            raise ExtractionError(class_id, self.cost_name, ty=ty)
        _cost, node, arg_types = entry
        expr = self.node_to_expr(node, arg_types, memo)
        memo[key] = expr
        return expr

    def node_to_expr(
        self, node: ENode, arg_types: tuple[str, ...], memo: dict | None = None
    ) -> Expr:
        """Build the expression for one e-node, children filled greedily."""
        memo = {} if memo is None else memo
        head, args = node
        if is_op_head(head):
            kids = tuple(
                self._build(self.egraph.find(arg), arg_ty, memo)
                for arg, arg_ty in zip(args, arg_types)
            )
            return App(head, kids)
        return head_to_leaf_expr(head)
