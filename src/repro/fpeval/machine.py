"""Evaluation machine for floating-point programs.

Evaluates mixed-format float expressions (trees of *target operators*) at
concrete input points, using the operator implementations supplied by a
target description.  :func:`compile_expr` compiles an expression once into
nested Python closures that run point by point; :class:`ColumnMemo`
evaluates expressions a whole point set at a time and keeps the values of
every subtree, since accuracy scoring evaluates many candidates sharing
subtrees on the same training set.

The machine is deliberately independent of :mod:`repro.targets`: it works
against the small :class:`OpSpec` protocol so it can be tested in isolation.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Protocol

from ..formats import get_format
from ..ir.expr import App, Const, Expr, Num, Var
from ..ir.types import F32, F64
from .impls import to_f32


class OpSpec(Protocol):
    """What the machine needs to know about one target operator."""

    arg_types: tuple[str, ...]
    ret_type: str

    @property
    def impl(self) -> Callable[..., float]: ...


class UnsupportedOperator(KeyError):
    """The expression uses an operator the target does not provide."""


def round_literal(value, ty: str) -> float:
    """Round an exact literal (Fraction) into float format ``ty``."""
    try:
        as_float = float(value)
    except OverflowError:
        as_float = math.inf if value > 0 else -math.inf
    if ty == F64:
        return as_float
    if ty == F32:
        return to_f32(as_float)
    return get_format(ty).round_float(as_float)


_CONST_VALUES = {"PI": math.pi, "E": math.e, "INFINITY": math.inf, "NAN": math.nan}

_COMPARISONS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

Point = Mapping[str, float]
Evaluator = Callable[[Point], float]


def compile_expr(
    expr: Expr, ops: Mapping[str, OpSpec], expected_ty: str = F64
) -> Evaluator:
    """Compile a float program into a closure evaluating one input point.

    ``expected_ty`` is the format literals are materialized in when the
    surrounding context doesn't dictate one (the program's output format).
    """
    if isinstance(expr, Var):
        name = expr.name
        return lambda point: point[name]
    if isinstance(expr, Num):
        value = round_literal(expr.value, expected_ty)
        return lambda point: value
    if isinstance(expr, Const):
        raw = _CONST_VALUES.get(expr.name)
        if raw is None:
            raise UnsupportedOperator(f"constant {expr.name} in value position")
        value = raw if expected_ty == F64 else round_literal(raw, expected_ty)
        return lambda point: value
    assert isinstance(expr, App)
    if expr.op == "if":
        cond = compile_condition(expr.args[0], ops, expected_ty)
        then_fn = compile_expr(expr.args[1], ops, expected_ty)
        else_fn = compile_expr(expr.args[2], ops, expected_ty)
        return lambda point: then_fn(point) if cond(point) else else_fn(point)
    spec = ops.get(expr.op)
    if spec is None:
        raise UnsupportedOperator(expr.op)
    if len(spec.arg_types) != len(expr.args):
        raise UnsupportedOperator(
            f"{expr.op} expects {len(spec.arg_types)} args, got {len(expr.args)}"
        )
    arg_fns = tuple(
        compile_expr(arg, ops, arg_ty)
        for arg, arg_ty in zip(expr.args, spec.arg_types)
    )
    impl = spec.impl
    if len(arg_fns) == 1:
        (f0,) = arg_fns
        return lambda point: impl(f0(point))
    if len(arg_fns) == 2:
        f0, f1 = arg_fns
        return lambda point: impl(f0(point), f1(point))
    if len(arg_fns) == 3:
        f0, f1, f2 = arg_fns
        return lambda point: impl(f0(point), f1(point), f2(point))
    return lambda point: impl(*[fn(point) for fn in arg_fns])


def compile_condition(
    expr: Expr, ops: Mapping[str, OpSpec], expected_ty: str = F64
) -> Callable[[Point], bool]:
    """Compile a boolean condition (comparisons over float operands)."""
    if isinstance(expr, Const):
        if expr.name == "TRUE":
            return lambda point: True
        if expr.name == "FALSE":
            return lambda point: False
    if isinstance(expr, App):
        if expr.op == "and":
            left = compile_condition(expr.args[0], ops, expected_ty)
            right = compile_condition(expr.args[1], ops, expected_ty)
            return lambda point: left(point) and right(point)
        if expr.op == "or":
            left = compile_condition(expr.args[0], ops, expected_ty)
            right = compile_condition(expr.args[1], ops, expected_ty)
            return lambda point: left(point) or right(point)
        if expr.op == "not":
            inner = compile_condition(expr.args[0], ops, expected_ty)
            return lambda point: not inner(point)
        compare = _COMPARISONS.get(expr.op)
        if compare is not None:
            left = compile_expr(expr.args[0], ops, expected_ty)
            right = compile_expr(expr.args[1], ops, expected_ty)
            return lambda point: compare(left(point), right(point))
    raise UnsupportedOperator(f"not a condition: {expr!r}")


def eval_expr(
    expr: Expr, point: Point, ops: Mapping[str, OpSpec], expected_ty: str = F64
) -> float:
    """One-shot evaluation (compiles then runs; prefer compile_expr in loops)."""
    return compile_expr(expr, ops, expected_ty)(point)


class _Failed:
    """Type of :data:`FAILED`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "FAILED"


#: Per-point marker in a column: evaluating the point raised an
#: OverflowError, ValueError or ZeroDivisionError (a compiled evaluator
#: would have raised it to its caller, which scores the point as NaN).
FAILED = _Failed()

#: The per-point failures a compiled evaluator's callers catch.
POINT_FAILURES = (OverflowError, ValueError, ZeroDivisionError)


class ColumnMemo:
    """Column-wise :func:`compile_expr` over one fixed point set, memoized.

    :meth:`column` evaluates an expression at every point at once and
    keeps the result per (subexpression, expected format), so programs
    that share subtrees — the candidates of one improvement loop, which
    differ from their parents only along a rewritten path — evaluate only
    the nodes they do not share.  Each node calls the same operator impl
    on the same inputs a compiled evaluator would, so the values are
    identical; a point whose evaluation would raise one of
    :data:`POINT_FAILURES` reads :data:`FAILED`, and an ``if`` takes each
    point's value from its taken branch only.  Unsupported operators raise
    :class:`UnsupportedOperator` as :func:`compile_expr` does.
    """

    def __init__(self, ops: Mapping[str, OpSpec], points: list[Point]):
        self.ops = ops
        self.points = points
        self._values: dict[tuple[Expr, str], list] = {}
        self._conditions: dict[tuple[Expr, str], list] = {}

    def column(self, expr: Expr, expected_ty: str = F64) -> list:
        """Values of ``expr`` at every point (or :data:`FAILED`)."""
        key = (expr, expected_ty)
        values = self._values.get(key)
        if values is None:
            values = self._values[key] = self._evaluate(expr, expected_ty)
        return values

    def _evaluate(self, expr: Expr, expected_ty: str) -> list:
        n = len(self.points)
        if isinstance(expr, Var):
            name = expr.name
            return [point[name] for point in self.points]
        if isinstance(expr, Num):
            return [round_literal(expr.value, expected_ty)] * n
        if isinstance(expr, Const):
            raw = _CONST_VALUES.get(expr.name)
            if raw is None:
                raise UnsupportedOperator(f"constant {expr.name} in value position")
            return [raw if expected_ty == F64 else round_literal(raw, expected_ty)] * n
        assert isinstance(expr, App)
        if expr.op == "if":
            cond = self.condition(expr.args[0], expected_ty)
            then = self.column(expr.args[1], expected_ty)
            other = self.column(expr.args[2], expected_ty)
            return [
                FAILED if taken is FAILED else (a if taken else b)
                for taken, a, b in zip(cond, then, other)
            ]
        spec = self.ops.get(expr.op)
        if spec is None:
            raise UnsupportedOperator(expr.op)
        if len(spec.arg_types) != len(expr.args):
            raise UnsupportedOperator(
                f"{expr.op} expects {len(spec.arg_types)} args, got {len(expr.args)}"
            )
        args = [
            self.column(arg, arg_ty)
            for arg, arg_ty in zip(expr.args, spec.arg_types)
        ]
        impl = spec.impl
        if not any(FAILED in values for values in args):
            try:
                return list(map(impl, *args))
            except POINT_FAILURES:
                pass
        out = []
        for inputs in zip(*args):
            if FAILED in inputs:
                out.append(FAILED)
                continue
            try:
                out.append(impl(*inputs))
            except POINT_FAILURES:
                out.append(FAILED)
        return out

    def condition(self, expr: Expr, expected_ty: str = F64) -> list:
        """Truth values of a condition at every point (or :data:`FAILED`),
        with :func:`compile_condition`'s short-circuit semantics."""
        key = (expr, expected_ty)
        truths = self._conditions.get(key)
        if truths is None:
            truths = self._conditions[key] = self._decide(expr, expected_ty)
        return truths

    def _decide(self, expr: Expr, expected_ty: str) -> list:
        n = len(self.points)
        if isinstance(expr, Const):
            if expr.name == "TRUE":
                return [True] * n
            if expr.name == "FALSE":
                return [False] * n
        if isinstance(expr, App):
            if expr.op in ("and", "or"):
                left = self.condition(expr.args[0], expected_ty)
                right = self.condition(expr.args[1], expected_ty)
                if expr.op == "and":
                    return [
                        FAILED if a is FAILED else (b if a else False)
                        for a, b in zip(left, right)
                    ]
                return [
                    FAILED if a is FAILED else (True if a else b)
                    for a, b in zip(left, right)
                ]
            if expr.op == "not":
                inner = self.condition(expr.args[0], expected_ty)
                return [FAILED if a is FAILED else not a for a in inner]
            compare = _COMPARISONS.get(expr.op)
            if compare is not None:
                left = self.column(expr.args[0], expected_ty)
                right = self.column(expr.args[1], expected_ty)
                return [
                    FAILED if a is FAILED or b is FAILED else compare(a, b)
                    for a, b in zip(left, right)
                ]
        raise UnsupportedOperator(f"not a condition: {expr!r}")
