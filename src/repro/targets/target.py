"""Target descriptions: a named set of operators plus cost-model data.

A target description (paper section 4.2) lists the operators available in a
compilation environment and the information Chassis needs to estimate the
speed of generated programs: per-operator scalar costs, literal and variable
costs, and how conditionals are priced ("scalar" style pays for the taken
branch, "vector" style pays for both branches plus a blend, as in AVX
masking or ``numpy.where``).

Targets can be *extended* (import + add/override operators), which is how
the built-in library targets share the core C arithmetic (paper: "a 'libm'
target may import the core C target").
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from ..egraph.rewrite import Rewrite
from .operator import OperatorDef
from .synth import synthesize_impl

#: Conditional-cost styles.
SCALAR = "scalar"
VECTOR = "vector"


@dataclass(frozen=True)
class _OpSpec:
    """Adapter giving :mod:`repro.fpeval.machine` what it needs."""

    arg_types: tuple[str, ...]
    ret_type: str
    impl: Callable[..., float]


@dataclass(frozen=True)
class Target:
    """One compilation target: operators, costs, and conditional style."""

    name: str
    operators: dict[str, OperatorDef]
    #: Cost of materializing a literal, per float format; also defines which
    #: formats the target supports for constants.
    literal_costs: dict[str, float]
    variable_cost: float = 1.0
    if_style: str = SCALAR
    if_cost: float = 1.0
    description: str = ""
    #: Where the cost model came from ("auto-tune", "Fog [20]", ...).
    cost_source: str = "auto-tune"
    #: Whether operators are predominantly linked (L) or emulated (E), for
    #: the figure 6 table.
    linkage: str = "E"
    #: Per-operator interpreter/dispatch overhead added by the performance
    #: simulator (large for Python/Julia, ~0 for hardware targets).
    perf_overhead: float = 0.0
    #: Output syntax this target prefers ("c", "python", "julia", or "fpcore").
    output_format: str = "fpcore"

    def __post_init__(self):
        if self.if_style not in (SCALAR, VECTOR):
            raise ValueError(f"bad if_style {self.if_style!r}")
        for op_name, op in self.operators.items():
            if op_name != op.name:
                raise ValueError(f"operator registered under wrong name: {op_name}")

    # --- basic queries ------------------------------------------------------------

    def operator(self, name: str) -> OperatorDef:
        return self.operators[name]

    def supports(self, name: str) -> bool:
        return name in self.operators

    def float_types(self) -> tuple[str, ...]:
        """Formats this target computes in (from literal cost declarations)."""
        return tuple(sorted(self.literal_costs))

    # --- rewrites and lowering ---------------------------------------------------------

    def desugar_rules(self) -> list[Rewrite]:
        """Desugar/lower rewrites for every operator (paper section 5.1)."""
        rules: list[Rewrite] = []
        for op in self.operators.values():
            rules.extend(op.desugar_rules())
        return rules

    def desugar_expr(self, expr):
        """Replace every target operator by its real-number denotation.

        The result is the program's *desugaring* (paper section 4.1): the
        real expression whose rounding Chassis promises to preserve.  Real
        operators, conditionals and predicates pass through untouched.
        """
        from ..ir.expr import App

        if not isinstance(expr, App):
            return expr
        args = tuple(self.desugar_expr(a) for a in expr.args)
        op = self.operators.get(expr.op)
        if op is None:
            return App(expr.op, args)
        return op.approx.substitute(dict(zip(op.params, args)))

    def direct_index(self) -> dict[tuple[str, str], OperatorDef]:
        """Map ``(real_op, ret_type)`` to the cheapest *direct* operator.

        Direct operators desugar to exactly one real operator, so they give
        a syntax-directed transcription of real expressions — used to lower
        target-agnostic (Herbie) outputs onto this target.
        """
        def rank(op: OperatorDef, real: str) -> tuple:
            # Prefer the canonically-named accurate operator (exp.f64 for
            # exp) over approximate variants (fast_exp.f64) which merely
            # share the desugaring; then prefer the more expensive (in
            # practice more accurate) implementation.
            base = op.name.partition(".")[0]
            return (base == real, op.cost)

        index: dict[tuple[str, str], OperatorDef] = {}
        _REAL_TO_BASE = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
        for op in self.operators.values():
            real = op.direct_real_op
            if real is None:
                continue
            key = (real, op.ret_type)
            base_name = _REAL_TO_BASE.get(real, real)
            if key not in index or rank(op, base_name) > rank(index[key], base_name):
                index[key] = op
        return index

    # --- evaluation ------------------------------------------------------------------

    def impl_registry(self) -> dict[str, _OpSpec]:
        """Operator implementations for the evaluation machine.

        Unlinked operators get a synthesized correctly-rounded
        implementation derived from their desugaring (paper section 4.2).
        Computed lazily once per target and cached on the instance.
        """
        cached = _IMPL_CACHE.get(id(self))
        if cached is not None:
            return cached
        registry: dict[str, _OpSpec] = {}
        for op in self.operators.values():
            impl = op.impl
            if impl is None:
                impl = synthesize_impl(op.approx, op.params, op.ret_type)
            registry[op.name] = _OpSpec(op.arg_types, op.ret_type, impl)
        _IMPL_CACHE[id(self)] = registry
        weakref.finalize(self, _IMPL_CACHE.pop, id(self), None)
        return registry

    # --- derivation ----------------------------------------------------------------------

    def extend(
        self,
        name: str,
        add_operators: Iterable[OperatorDef] = (),
        remove_operators: Iterable[str] = (),
        override_costs: dict[str, float] | None = None,
        **changes,
    ) -> "Target":
        """Derive a new target by importing this one and modifying it."""
        ops = dict(self.operators)
        for op_name in remove_operators:
            ops.pop(op_name, None)
        for op in add_operators:
            ops[op.name] = op
        if override_costs:
            for op_name, cost in override_costs.items():
                ops[op_name] = ops[op_name].with_cost(cost)
        return replace(self, name=name, operators=ops, **changes)


# Implementation registries are pure functions of the (frozen) target, so a
# per-instance cache keyed by id() is safe as long as an entry never
# outlives its target: a weakref.finalize evicts it at collection, which
# both prevents recycled ids from serving stale registries and stops the
# cache retaining every Target ever evaluated (it used to pin them all via
# a keepalive list).
_IMPL_CACHE: dict[int, dict[str, _OpSpec]] = {}
