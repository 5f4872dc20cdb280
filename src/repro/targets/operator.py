"""Operator definitions: the core abstraction of Chassis (paper section 4).

An operator is an atomic floating-point instruction of a target: it has a
name, a type signature, a *desugaring* (the real-number expression it
approximates), a scalar cost, and an implementation used to evaluate
accuracy.  The desugaring is the load-bearing piece: Chassis optimizations
preserve the desugaring of the program, not its float semantics, which is
what lets one e-graph mix mathematical identities with target-specific
instruction selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from ..egraph.rewrite import Rewrite
from ..ir.expr import App, Expr, Var
from ..ir.parser import parse_expr
from ..ir.types import check_float_type

#: Conventional parameter names, positionally matching operator arguments.
PARAM_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class OperatorDef:
    """One target operator: name, signature, desugaring, cost, implementation."""

    name: str
    arg_types: tuple[str, ...]
    ret_type: str
    #: The real expression this operator approximates, over Var("x"/"y"/"z").
    approx: Expr
    #: Cost-model cost (what Chassis' search sees).
    cost: float
    #: True per-invocation latency in the performance simulator (hidden from
    #: the compiler; see :mod:`repro.perf`).
    true_latency: float
    #: Linked implementation, or None to synthesize a correctly-rounded one.
    impl: Callable[..., float] | None = field(default=None, compare=False)
    #: Whether this operator was linked (L) or emulated/synthesized (E).
    linked: bool = False

    def __post_init__(self):
        check_float_type(self.ret_type)
        for ty in self.arg_types:
            check_float_type(ty)
        params = self.params
        extra = self.approx.free_vars() - set(params)
        if extra:
            raise ValueError(
                f"operator {self.name}: desugaring uses unknown params {sorted(extra)}"
            )

    @property
    def arity(self) -> int:
        return len(self.arg_types)

    @property
    def params(self) -> tuple[str, ...]:
        return PARAM_NAMES[: self.arity]

    @property
    def is_direct(self) -> bool:
        """True when the desugaring is exactly one real operator over the
        parameters in order (e.g. ``add.f64 -> (+ x y)``).  Direct operators
        give a one-to-one transcription from real expressions."""
        approx = self.approx
        return (
            isinstance(approx, App)
            and len(approx.args) == self.arity
            and all(
                isinstance(arg, Var) and arg.name == param
                for arg, param in zip(approx.args, self.params)
            )
        )

    @property
    def direct_real_op(self) -> str | None:
        """The real operator this directly implements, if :attr:`is_direct`."""
        return self.approx.op if self.is_direct else None  # type: ignore[union-attr]

    def pattern(self) -> Expr:
        """The application pattern ``name(x, y, ...)`` for rewrites."""
        return App(self.name, tuple(Var(p) for p in self.params))

    def desugar_rules(self) -> list[Rewrite]:
        """The two rewrites connecting this operator to its denotation.

        ``lower`` (real -> float) introduces the operator during instruction
        selection; ``desugar`` (float -> real) exposes an input program's
        mathematical meaning to the identity rules.
        """
        pattern = self.pattern()
        return [
            Rewrite(f"desugar-{self.name}", pattern, self.approx, tags=frozenset(["desugar"])),
            Rewrite(f"lower-{self.name}", self.approx, pattern, tags=frozenset(["lower"])),
        ]

    def with_cost(self, cost: float) -> "OperatorDef":
        """A copy of this operator with a different cost-model cost."""
        return replace(self, cost=cost)


def opdef(
    name: str,
    arg_types,
    ret_type: str,
    approx: str | Expr,
    latency: float,
    impl: Callable[..., float] | None = None,
    cost: float | None = None,
    linked: bool | None = None,
) -> OperatorDef:
    """Concise :class:`OperatorDef` constructor used by target modules.

    ``approx`` may be S-expression source over parameters ``x``/``y``/``z``.
    ``cost`` defaults to ``latency`` (targets usually replace it by an
    auto-tuned estimate); ``linked`` defaults to whether an implementation
    was supplied.
    """
    approx_expr = parse_expr(approx) if isinstance(approx, str) else approx
    return OperatorDef(
        name=name,
        arg_types=tuple(arg_types),
        ret_type=ret_type,
        approx=approx_expr,
        cost=latency if cost is None else cost,
        true_latency=latency,
        impl=impl,
        linked=(impl is not None) if linked is None else linked,
    )
