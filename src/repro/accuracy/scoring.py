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
    fmt = get_format(ty)
    return [
        bits_of_error(math.nan if value is FAILED else value, exact, fmt)
        for value, exact in zip(memo.column(program, ty), exact_values)
    ]
