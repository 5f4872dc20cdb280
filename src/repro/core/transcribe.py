"""Direct transcription of real expressions into target float programs.

This is the "FPCore translation" every target provides (paper section 6.3):
each real operator maps to the target operator that directly implements it
at the chosen format.  It is used for the *input* programs Chassis starts
from, for lowering Herbie's target-agnostic outputs onto a target, and for
lowering series-expansion candidates.

When an operator has no direct implementation the transcriber can fall back
to *desugaring* it through mathematical definitions (``fma(x,y,z)`` becomes
``x*y + z``); truly missing operations make the expression untranscribable,
mirroring the paper's discard rule.
"""

from __future__ import annotations

from ..ir.expr import App, Const, Expr
from ..ir.ops import COMPARISON_OPS
from ..ir.parser import parse_expr
from ..ir.types import F64
from ..targets.target import Target


class Untranscribable(ValueError):
    """The real expression uses operations the target cannot express."""


#: Desugarings used to eliminate helper operators that a target lacks, e.g.
#: replacing fma with multiply-add on Python (paper section 6.3).  Applied
#: repeatedly until only directly-supported operators remain.
_FALLBACKS: dict[str, str] = {
    "expm1": "(- (exp x) 1)",
    "log1p": "(log (+ 1 x))",
    "log2": "(/ (log x) (log 2))",
    "log10": "(/ (log x) (log 10))",
    "exp2": "(pow 2 x)",
    "hypot": "(sqrt (+ (* x x) (* y y)))",
    "cbrt": "(pow x 1/3)",
    "sinh": "(/ (- (exp x) (exp (neg x))) 2)",
    "cosh": "(/ (+ (exp x) (exp (neg x))) 2)",
    "tanh": "(/ (- (exp x) (exp (neg x))) (+ (exp x) (exp (neg x))))",
    "asinh": "(log (+ x (sqrt (+ (* x x) 1))))",
    "acosh": "(log (+ x (sqrt (- (* x x) 1))))",
    "atanh": "(* 1/2 (log (/ (+ 1 x) (- 1 x))))",
    "neg": "(- 0 x)",
    "fabs": "(fmax x (neg x))",
    "fmin": "(if (< x y) x y)",
    "fmax": "(if (< x y) y x)",
    "atan2": "(atan (/ x y))",
    "fmod": "(- x (* y (trunc (/ x y))))",
    "pow": "(exp (* y (log x)))",
    "tan": "(/ (sin x) (cos x))",
}

_PARAMS = ("x", "y", "z")


def transcribe(
    expr: Expr,
    target: Target,
    ty: str = F64,
    allow_fallbacks: bool = True,
) -> Expr:
    """Lower a real expression to a float program of format ``ty``.

    Raises :class:`Untranscribable` when some operation is fundamentally
    missing on the target (even after desugaring fallbacks).
    """
    return _lower(expr, 0, target, target.direct_index(), ty, allow_fallbacks)


def _lower(
    node: Expr, depth: int, target: Target, index, ty: str, allow_fallbacks: bool
) -> Expr:
    if depth > 40:
        raise Untranscribable("fallback expansion did not terminate")
    if not isinstance(node, App):
        return node
    if node.op == "if":
        return App("if", (
            _lower_condition(node.args[0], depth, target, index, ty, allow_fallbacks),
            _lower(node.args[1], depth, target, index, ty, allow_fallbacks),
            _lower(node.args[2], depth, target, index, ty, allow_fallbacks),
        ))
    direct = index.get((node.op, ty))
    if direct is not None:
        return App(direct.name, tuple(
            _lower(a, depth, target, index, ty, allow_fallbacks) for a in node.args
        ))
    fallback = _FALLBACKS.get(node.op)
    if allow_fallbacks and fallback is not None:
        template = parse_expr(fallback)
        bindings = dict(zip(_PARAMS, node.args))
        return _lower(template.substitute(bindings), depth + 1,
                      target, index, ty, allow_fallbacks)
    raise Untranscribable(
        f"target {target.name} has no implementation of {node.op!r} at {ty}"
    )


def _lower_condition(
    node: Expr, depth: int, target: Target, index, ty: str, allow_fallbacks: bool
) -> Expr:
    if isinstance(node, App):
        if node.op in COMPARISON_OPS:
            return App(node.op, tuple(
                _lower(a, depth, target, index, ty, allow_fallbacks)
                for a in node.args
            ))
        if node.op in ("and", "or", "not"):
            return App(node.op, tuple(
                _lower_condition(a, depth, target, index, ty, allow_fallbacks)
                for a in node.args
            ))
    if isinstance(node, Const):
        return node
    raise Untranscribable(f"cannot lower condition {node!r}")


def transcribe_with_poly(
    expr: Expr, target: Target, ty: str = F64, degree: int = 6
) -> Expr:
    """Transcription with polynomial-approximation fallback (paper section 2).

    Targets like Arith and AVX lack transcendental functions entirely;
    "AVX code must use polynomial approximations instead".  When direct
    transcription fails because an operator is fundamentally missing, this
    replaces the offending (univariate) subexpression by a truncated series
    expansion and lowers that.  The result is a *starting point* — the
    improvement loop then measures and refines its accuracy honestly.
    """
    try:
        return transcribe(expr, target, ty)
    except Untranscribable:
        pass
    return _lower_poly(expr, target, target.direct_index(), ty, degree)


def _lower_poly(node: Expr, target: Target, index, ty: str, degree: int) -> Expr:
    try:
        return transcribe(node, target, ty)
    except Untranscribable:
        pass
    if isinstance(node, App):
        direct = index.get((node.op, ty))
        if node.op == "if":
            return App("if", (
                _lower_poly_condition(node.args[0], target, index, ty, degree),
                _lower_poly(node.args[1], target, index, ty, degree),
                _lower_poly(node.args[2], target, index, ty, degree),
            ))
        if direct is not None:
            # The operator itself is fine: the failure is in a child.
            return App(direct.name, tuple(
                _lower_poly(a, target, index, ty, degree) for a in node.args
            ))
        from .series import series_candidates

        for candidate in series_candidates(node, degree=degree):
            try:
                return transcribe(candidate, target, ty)
            except Untranscribable:
                continue
    raise Untranscribable(
        f"target {target.name}: no implementation or polynomial "
        f"approximation for {node!r}"
    )


def _lower_poly_condition(
    cond: Expr, target: Target, index, ty: str, degree: int
) -> Expr:
    if isinstance(cond, App) and cond.op in COMPARISON_OPS:
        return App(cond.op, tuple(
            _lower_poly(a, target, index, ty, degree) for a in cond.args
        ))
    if isinstance(cond, App) and cond.op in ("and", "or", "not"):
        return App(cond.op, tuple(
            _lower_poly_condition(a, target, index, ty, degree) for a in cond.args
        ))
    return cond


def transcribable(expr: Expr, target: Target, ty: str = F64) -> bool:
    """True when :func:`transcribe` would succeed."""
    try:
        transcribe(expr, target, ty)
    except Untranscribable:
        return False
    return True
