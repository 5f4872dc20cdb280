"""Candidate programs and Pareto frontiers.

Chassis' iterative loop scores every generated program for (cost, error)
and retains the Pareto-optimal subset — "the most accurate programs for any
given cost bound" (paper section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..ir.expr import Expr
from ..ir.printer import expr_to_sexpr


@dataclass(frozen=True)
class Candidate:
    """One scored program: estimated cost plus measured training error."""

    program: Expr
    cost: float
    error: float
    #: Per-training-point bits of error (kept for regime inference).
    point_errors: tuple[float, ...] = field(default=(), compare=False)
    #: Provenance note ("initial", "isel", "series", "regimes", ...).
    origin: str = ""

    def dominates(self, other: "Candidate") -> bool:
        """Weak Pareto dominance on (cost, error)."""
        return (
            self.cost <= other.cost
            and self.error <= other.error
            and (self.cost < other.cost or self.error < other.error)
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[cost={self.cost:.1f} err={self.error:.2f}] {expr_to_sexpr(self.program)}"


class ParetoFrontier:
    """A mutable set of mutually non-dominated candidates."""

    def __init__(self, candidates: Iterable[Candidate] = ()):
        self._items: list[Candidate] = []
        for candidate in candidates:
            self.add(candidate)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self.sorted_by_cost())

    def add(self, candidate: Candidate) -> bool:
        """Insert if non-dominated; evict anything it dominates.

        Returns True when the candidate was kept.
        """
        for existing in self._items:
            if existing.dominates(candidate) or (
                existing.cost == candidate.cost and existing.error == candidate.error
            ):
                return False
        self._items = [c for c in self._items if not candidate.dominates(c)]
        self._items.append(candidate)
        return True

    def update(self, candidates: Iterable[Candidate]) -> int:
        """Add many candidates; returns how many were kept."""
        return sum(1 for c in candidates if self.add(c))

    def sorted_by_cost(self) -> list[Candidate]:
        """Candidates from cheapest (least accurate) to most expensive."""
        return sorted(self._items, key=lambda c: (c.cost, c.error))

    def best_error(self) -> Candidate:
        """The most accurate candidate (ties broken toward cheap)."""
        if not self._items:
            raise ValueError("empty frontier")
        return min(self._items, key=lambda c: (c.error, c.cost))

    def best_cost(self) -> Candidate:
        """The cheapest candidate (ties broken toward accurate)."""
        if not self._items:
            raise ValueError("empty frontier")
        return min(self._items, key=lambda c: (c.cost, c.error))

    def fastest_within(self, error_bound: float) -> Candidate | None:
        """The cheapest candidate whose error is <= ``error_bound``."""
        feasible = [c for c in self._items if c.error <= error_bound]
        if not feasible:
            return None
        return min(feasible, key=lambda c: c.cost)
