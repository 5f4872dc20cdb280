"""Rule registry: the full database and named subsets.

Chassis runs two kinds of saturation (paper section 5.2): the heavyweight
instruction-selection pass uses the *full* database (plus target desugaring
rules), while the lightweight cost-opportunity analysis uses only the
``simplify``-tagged subset (rules that never grow the AST), making it cheap
enough to run over every subexpression.
"""

from __future__ import annotations

from functools import lru_cache

from ..egraph.rewrite import Rewrite
from . import (
    arithmetic,
    exponents,
    fractions,
    hyperbolic,
    logs,
    polynomials,
    special,
    sqrt_rules,
    trig,
)

_MODULES = (
    arithmetic,
    fractions,
    polynomials,
    sqrt_rules,
    exponents,
    logs,
    trig,
    hyperbolic,
    special,
)


@lru_cache(maxsize=None)
def all_rules() -> tuple[Rewrite, ...]:
    """The complete mathematical rewrite database."""
    rules: list[Rewrite] = []
    seen: set[str] = set()
    for module in _MODULES:
        for rule in module.RULES:
            if rule.name in seen:
                raise ValueError(f"duplicate rule name: {rule.name}")
            seen.add(rule.name)
            rules.append(rule)
    return tuple(rules)


@lru_cache(maxsize=None)
def opportunity_rules() -> tuple[Rewrite, ...]:
    """Rule set for the lightweight cost-opportunity saturation.

    The simplify subset plus "expose" rules (like ``a/b => a*(1/b)``) that
    keep the *lowered* size flat while revealing cheaper target operators
    such as rcp/rsqrt (the paper's section 5.2 worked example).
    """
    return tuple(r for r in all_rules() if r.tags & {"simplify", "expose"})


def rules_for_operators(available_ops: set[str]) -> tuple[Rewrite, ...]:
    """Rules whose operators all appear in ``available_ops``.

    Used to prune the database when a benchmark exercises only a small
    operator vocabulary — smaller rule sets keep saturation affordable.
    Arithmetic is always retained.
    """
    core = {"+", "-", "*", "/", "neg", "pow", "fabs"}
    keep: list[Rewrite] = []
    for rule in all_rules():
        ops = rule.lhs.operators() | rule.rhs.operators()
        if ops <= (available_ops | core):
            keep.append(rule)
    return tuple(keep)
