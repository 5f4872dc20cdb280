"""Mathematical rewrite-rule database (Herbie-style, paper section 3.3)."""

from .registry import all_rules, opportunity_rules, rules_for_operators

__all__ = [
    "all_rules",
    "opportunity_rules",
    "rules_for_operators",
]
