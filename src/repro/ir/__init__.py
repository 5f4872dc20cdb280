"""Expression IR: mixed real/float terms, FPCore parsing and printing."""

from .expr import App, Const, Expr, Num, Var, add, div, mul, neg, sub
from .fpcore import FPCore, parse_fpcore, parse_fpcores
from .ops import ARITHMETIC_OPS, RealOp, is_real_op
from .parser import ParseError, parse_expr, parse_number, parse_sexpr, parse_sexprs
from .printer import expr_to_infix, expr_to_sexpr
from .types import BOOL, F32, F64, REAL, is_float_type

__all__ = [
    "App", "Const", "Expr", "Num", "Var",
    "add", "sub", "mul", "div", "neg",
    "FPCore", "parse_fpcore", "parse_fpcores",
    "RealOp", "is_real_op", "ARITHMETIC_OPS",
    "ParseError", "parse_expr", "parse_number", "parse_sexpr", "parse_sexprs",
    "expr_to_sexpr", "expr_to_infix",
    "REAL", "F32", "F64", "BOOL", "is_float_type",
]
