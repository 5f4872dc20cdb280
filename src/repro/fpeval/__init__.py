"""Floating-point evaluation: operator implementations and the machine."""

from . import approx, impls
from .impls import to_f32
from .machine import (
    UnsupportedOperator,
    compile_condition,
    compile_expr,
    round_literal,
)

__all__ = [
    "impls",
    "approx",
    "to_f32",
    "compile_expr",
    "compile_condition",
    "round_literal",
    "UnsupportedOperator",
]
