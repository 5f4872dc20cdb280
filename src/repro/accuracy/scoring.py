"""Whole-program accuracy scoring against the correctly-rounded oracle."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ..formats import get_format
from ..fpeval.machine import FAILED, ColumnMemo
from ..ir.expr import Expr
from ..ir.types import F64
from ..targets.target import Target
from .ulp import bits_of_error

Point = Mapping[str, float]


def oracle_exact_values(
    oracle,
    expr: Expr,
    points: Sequence[Point],
    ty: str = F64,
) -> list[float]:
    """Correctly rounded values of ``expr`` over a whole point set, in one
    batched backend call (the scoring-side twin of the sampler's per-block
    oracling).  Points where the oracle reports a failure — domain error,
    precision exhaustion, unknown operator — come back as NaN, which
    :func:`bits_of_error` treats as worst case.
    """
    return [
        result.value if result.ok else math.nan
        for result in oracle.eval_batch(expr, list(points), ty)
    ]


def score_program(
    program: Expr,
    target: Target,
    points: Sequence[Point],
    exact_values: Sequence[float],
    ty: str = F64,
) -> float:
    """Mean bits of error of a float program over sampled points.

    ``exact_values`` are the correctly-rounded values of the *benchmark's*
    real expression at the same points (computed once per benchmark).  A
    program that crashes on evaluation scores worst-case error.
    """
    if len(points) != len(exact_values):
        raise ValueError("points and exact values must align")
    try:
        errors = pointwise_errors(program, target, points, exact_values, ty)
    except KeyError:
        return float(get_format(ty).bits)
    return sum(errors) / max(1, len(points))


def pointwise_errors(
    program: Expr,
    target: Target,
    points: Sequence[Point],
    exact_values: Sequence[float],
    ty: str = F64,
    memo: ColumnMemo | None = None,
) -> list[float]:
    """Bits of error at each point; a point whose evaluation fails scores
    as NaN.  Raises KeyError for an operator the target lacks.

    ``memo``, a :class:`~repro.fpeval.machine.ColumnMemo` over the same
    ``points`` (the improvement loop keeps one for its training points),
    supplies the values of subtrees evaluated before.
    """
    if memo is None:
        memo = ColumnMemo(target.impl_registry(), points)
    elif memo.points is not points:
        raise ValueError("memo was built for a different point set")
    return [
        bits_of_error(math.nan if value is FAILED else value, exact, ty)
        for value, exact in zip(memo.column(program, ty), exact_values)
    ]
