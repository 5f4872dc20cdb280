"""Registry of *real-number* operators.

These are the mathematical operators that appear in desugarings: pure
functions over the reals with no rounding.  Target operators (``add.f64``,
``rcp.f32``, …) are declared separately in target descriptions and *denote*
expressions built from the operators in this registry (paper section 4.1).

Each operator records its arity, the name of the corresponding mpmath
function (used by the interval oracle), and a coarse domain so that input
sampling can reject obviously-invalid points early.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RealOp:
    """Metadata for one real-number operator."""

    name: str
    arity: int
    #: Name of the mpmath function implementing the operator exactly
    #: (``None`` for operators the oracle handles specially).
    mp_name: str | None = None
    #: Human-readable domain restriction, for documentation.
    domain: str = "all reals"
    #: True when the operator is a comparison/boolean producing a BOOL.
    is_predicate: bool = False
    #: True for operators that are expensive library calls (used by naive
    #: cost models such as Herbie's arith-1/call-100 model).
    is_call: bool = field(default=False)


_REGISTRY: dict[str, RealOp] = {}


def _op(name, arity, mp_name=None, domain="all reals", pred=False, call=False):
    _REGISTRY[name] = RealOp(name, arity, mp_name, domain, pred, call)


# Arithmetic -----------------------------------------------------------------
_op("+", 2, "fadd")
_op("-", 2, "fsub")
_op("*", 2, "fmul")
_op("/", 2, "fdiv", domain="y != 0")
_op("neg", 1, "fneg")
_op("fabs", 1, "fabs")
_op("fmin", 2, None)
_op("fmax", 2, None)
_op("fmod", 2, None, domain="y != 0", call=True)
_op("copysign", 2, None)

# Roots and powers -----------------------------------------------------------
_op("sqrt", 1, "sqrt", domain="x >= 0", call=True)
_op("cbrt", 1, "cbrt", call=True)
_op("pow", 2, "power", domain="x > 0, or integer exponents", call=True)
_op("hypot", 2, "hypot", call=True)

# Exponentials and logarithms --------------------------------------------------
_op("exp", 1, "exp", call=True)
_op("exp2", 1, None, call=True)
_op("expm1", 1, "expm1", call=True)
_op("log", 1, "log", domain="x > 0", call=True)
_op("log2", 1, None, domain="x > 0", call=True)
_op("log10", 1, "log10", domain="x > 0", call=True)
_op("log1p", 1, "log1p", domain="x > -1", call=True)

# Trigonometry ----------------------------------------------------------------
_op("sin", 1, "sin", call=True)
_op("cos", 1, "cos", call=True)
_op("tan", 1, "tan", domain="x != pi/2 + k*pi", call=True)
_op("asin", 1, "asin", domain="-1 <= x <= 1", call=True)
_op("acos", 1, "acos", domain="-1 <= x <= 1", call=True)
_op("atan", 1, "atan", call=True)
_op("atan2", 2, "atan2", call=True)

# Hyperbolics -----------------------------------------------------------------
_op("sinh", 1, "sinh", call=True)
_op("cosh", 1, "cosh", call=True)
_op("tanh", 1, "tanh", call=True)
_op("asinh", 1, "asinh", call=True)
_op("acosh", 1, "acosh", domain="x >= 1", call=True)
_op("atanh", 1, "atanh", domain="-1 < x < 1", call=True)

# Rounding --------------------------------------------------------------------
_op("floor", 1, "floor", call=True)
_op("ceil", 1, "ceiling", call=True)
_op("round", 1, "nint", call=True)
_op("trunc", 1, None, call=True)

# Control flow and predicates ---------------------------------------------------
_op("if", 3, None)
_op("<", 2, None, pred=True)
_op("<=", 2, None, pred=True)
_op(">", 2, None, pred=True)
_op(">=", 2, None, pred=True)
_op("==", 2, None, pred=True)
_op("!=", 2, None, pred=True)
_op("and", 2, None, pred=True)
_op("or", 2, None, pred=True)
_op("not", 1, None, pred=True)


def is_real_op(name: str) -> bool:
    """True when ``name`` is a registered real-number operator."""
    return name in _REGISTRY


#: Operators counted as plain arithmetic by naive (Herbie-style) cost models.
ARITHMETIC_OPS = frozenset(
    ["+", "-", "*", "/", "neg", "fabs", "fmin", "fmax", "copysign"]
)

#: Value-producing operators, excluding control flow and predicates.
VALUE_OPS = frozenset(
    name for name, op in _REGISTRY.items() if not op.is_predicate and name != "if"
)

#: Comparison operators usable in regime branch conditions.
COMPARISON_OPS = frozenset(["<", "<=", ">", ">=", "==", "!="])
