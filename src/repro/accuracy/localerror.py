"""The local error heuristic (paper section 5.2, introduced by Herbie).

Local error isolates the error *an operator itself introduces* from error
inherited through its arguments: evaluate the operator's arguments exactly
(correctly rounded into their formats), apply the floating-point operator
once, and compare against the correctly-rounded true value of the node.  An
operator with high local error is a rewrite candidate; an operator that
merely passes along its children's error is not blamed.

Exact values come from the batched oracle, one ``eval_batch`` call per
distinct (desugared subexpression, format) over the whole point set, and
an :class:`ExactMemo` keeps them — and each node's mean local error — for
as long as its owner (the improvement loop) runs on the same points.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ..formats import get_format
from ..ir.expr import App, Expr
from ..ir.types import F64
from ..targets.target import Target
from .ulp import bits_of_error

Path = tuple[int, ...]
Point = Mapping[str, float]


class ExactMemo:
    """Correctly rounded values over one fixed point set, per target.

    ``exact(expr, ty)`` desugars a float subexpression and answers the
    real expression's values at every point from one batched oracle call,
    memoized by (desugared expression, format); a point where the oracle
    reports a failure (domain error, precision exhaustion, unknown
    operator) reads None.  The oracle's batch path matches its scalar
    path bit for bit, so the values are the ones per-point evaluation
    would give.
    """

    def __init__(self, target: Target, points: Sequence[Point], oracle=None):
        if oracle is None:
            from ..rival.backends import make_backend

            oracle = make_backend()
        self.target = target
        self.points = points
        self.oracle = oracle
        self._real: dict[Expr, Expr] = {}
        self._values: dict[tuple[Expr, str], list[float | None]] = {}
        #: Mean local error per float node (None: undefined at every point).
        self.node_errors: dict[Expr, float | None] = {}

    def exact(self, expr: Expr, ty: str) -> list[float | None]:
        real = self._real.get(expr)
        if real is None:
            real = self._real[expr] = self.target.desugar_expr(expr)
        key = (real, ty)
        values = self._values.get(key)
        if values is None:
            values = self._values[key] = [
                result.value if result.ok else None
                for result in self.oracle.eval_batch(real, self.points, ty)
            ]
        return values


def local_errors(
    program: Expr,
    target: Target,
    points: Sequence[Point],
    ty: str = F64,
    memo: ExactMemo | None = None,
) -> dict[Path, float]:
    """Mean local error (bits) of every target-operator node in ``program``.

    Conditionals contribute through their branches; predicate and leaf
    nodes have no local error.  ``memo`` carries exact values across
    calls on the same ``points`` (a fresh one over the environment's
    oracle backend when omitted).
    """
    if memo is None:
        memo = ExactMemo(target, points)
    elif memo.points is not points:
        raise ValueError("memo was built for a different point set")
    impls = target.impl_registry()
    results: dict[Path, float] = {}

    for path, node in program.subexprs():
        if not isinstance(node, App):
            continue
        spec = impls.get(node.op)
        if spec is None:
            continue  # conditionals, predicates, unknown ops
        if node not in memo.node_errors:
            memo.node_errors[node] = _node_error(node, spec, target, memo)
        error = memo.node_errors[node]
        if error is not None:
            results[path] = error
    return results


def _node_error(node: App, spec, target: Target, memo: ExactMemo) -> float | None:
    """Mean local error of one node over the memo's points, or None when
    it is undefined at every point."""
    ret_type = target.operator(node.op).ret_type
    arg_values = [
        memo.exact(arg, arg_ty) for arg, arg_ty in zip(node.args, spec.arg_types)
    ]
    out_values = memo.exact(node, ret_type)
    fmt = get_format(ret_type)
    total, counted = 0.0, 0
    for index, exact_out in enumerate(out_values):
        exact_args = [values[index] for values in arg_values]
        if exact_out is None or None in exact_args:
            continue
        try:
            approx_out = spec.impl(*exact_args)
        except (OverflowError, ValueError, ZeroDivisionError):
            approx_out = math.nan
        total += bits_of_error(approx_out, exact_out, fmt)
        counted += 1
    return total / counted if counted else None
