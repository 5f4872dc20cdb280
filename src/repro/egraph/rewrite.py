"""Rewrite rules over e-graphs (paper section 3.3).

A rewrite ``lhs -> rhs`` is applied *non-destructively*: every match of
``lhs`` inserts the instantiated ``rhs`` and merges the two e-classes, so the
e-graph explores compositions of rules in parallel and avoids the
phase-ordering problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..ir.expr import Expr
from ..ir.parser import parse_expr
from .egraph import EGraph
from .ematch import Subst, instantiate, pattern_heads, search_pattern

#: Optional side condition, called as ``condition(egraph, subst)``; returns
#: whether the rule may fire for that match.
Condition = Callable[[EGraph, Subst], bool]


@dataclass(frozen=True)
class Rewrite:
    """One directed rewrite rule ``name: lhs => rhs``."""

    name: str
    lhs: Expr
    rhs: Expr
    condition: Condition | None = field(default=None, compare=False)
    #: Tags such as "simplify" (AST-non-growing rules used by the cost
    #: opportunity analysis), "sound", "arithmetic", etc.
    tags: frozenset[str] = frozenset()
    #: The heads ``lhs`` needs in the graph (:func:`pattern_heads`),
    #: computed once per rule for the saturation runner's rule filter.
    heads: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        unbound = self.rhs.free_vars() - self.lhs.free_vars()
        if unbound:
            raise ValueError(
                f"rule {self.name}: rhs has unbound variables {sorted(unbound)}"
            )
        object.__setattr__(self, "heads", pattern_heads(self.lhs))

    def apply(self, egraph: EGraph, limit: int | None = None) -> int:
        """Apply this rule everywhere it matches; returns number of matches."""
        matches = search_pattern(egraph, self.lhs, limit=limit)
        count = 0
        for class_id, subst in matches:
            if self.condition is not None and not self.condition(egraph, subst):
                continue
            new_id = instantiate(egraph, self.rhs, subst)
            egraph.union(class_id, new_id)
            count += 1
        return count

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}: {self.lhs!r} => {self.rhs!r}"


def rw(
    name: str,
    lhs: str | Expr,
    rhs: str | Expr,
    known_ops=None,
    condition: Condition | None = None,
    tags=(),
) -> Rewrite:
    """Build a rewrite from S-expression strings (test/rule-database helper)."""
    lhs_expr = parse_expr(lhs, known_ops) if isinstance(lhs, str) else lhs
    rhs_expr = parse_expr(rhs, known_ops) if isinstance(rhs, str) else rhs
    return Rewrite(name, lhs_expr, rhs_expr, condition, frozenset(tags))


def birw(name: str, lhs, rhs, known_ops=None, tags=()) -> list[Rewrite]:
    """Build a bidirectional pair of rewrites."""
    return [
        rw(name, lhs, rhs, known_ops, tags=tags),
        rw(name + "-rev", rhs, lhs, known_ops, tags=tags),
    ]
