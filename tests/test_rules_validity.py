"""Numerical soundness check of the entire rewrite-rule database.

Every rule ``lhs => rhs`` must preserve *real-number* semantics (that is the
whole premise of desugaring preservation).  We verify each rule by
evaluating both sides with mpmath at random benign points and comparing.
Rules tagged as sound only away from singularities/domains are checked on
points inside their safe region.
"""

from __future__ import annotations

import math

import mpmath
import pytest
from mpmath import mp, mpf

from repro.rules import all_rules, opportunity_rules
from repro.targets.synth import mp_eval

#: Benign sample values avoiding singularities of / log / sqrt / atanh.
_SAMPLES = [
    {"a": mpf("0.341"), "b": mpf("0.527"), "c": mpf("0.713")},
    {"a": mpf("0.82"), "b": mpf("0.194"), "c": mpf("0.455")},
    {"a": mpf("0.66"), "b": mpf("0.91"), "c": mpf("0.23")},
]


def _check_rule(rule, env) -> None:
    with mp.workprec(160):
        try:
            lhs = mp_eval(rule.lhs, env, mp)
            rhs = mp_eval(rule.rhs, env, mp)
        except (ValueError, ZeroDivisionError, KeyError):
            pytest.skip("point outside rule domain")
        if not (mpmath.isfinite(lhs) and mpmath.isfinite(rhs)):
            pytest.skip("non-finite at sample point")
        scale = max(abs(lhs), abs(rhs), mpf(1))
        assert abs(lhs - rhs) / scale < mpf(2) ** -100, (
            f"rule {rule.name}: lhs={lhs}, rhs={rhs} at {env}"
        )


@pytest.mark.parametrize("rule", all_rules(), ids=lambda r: r.name)
def test_rule_preserves_real_semantics(rule):
    free = sorted(rule.lhs.free_vars() | rule.rhs.free_vars())
    checked = 0
    for sample in _SAMPLES:
        env = {name: sample[name] for name in free if name in sample}
        if len(env) != len(free):
            pytest.skip("rule uses unexpected variable names")
        try:
            _check_rule(rule, env)
            checked += 1
        except pytest.skip.Exception:
            continue
    if checked == 0:
        pytest.skip("no valid sample point for this rule")


def _simplify_rules():
    """The ``simplify``-tagged rules (the AST-non-growing subset)."""
    return [r for r in all_rules() if "simplify" in r.tags]


class TestRuleSubsets:
    def test_simplify_rules_never_grow(self):
        for rule in _simplify_rules():
            assert rule.rhs.size() <= rule.lhs.size(), rule.name

    def test_simplify_subset_of_all(self):
        names = {r.name for r in all_rules()}
        assert _simplify_rules()
        assert all(r.name in names for r in _simplify_rules())

    def test_opportunity_superset_of_simplify(self):
        opp = {r.name for r in opportunity_rules()}
        assert {r.name for r in _simplify_rules()} <= opp
        assert "div-as-mul-rcp" in opp

    def test_no_duplicate_names(self):
        names = [r.name for r in all_rules()]
        assert len(names) == len(set(names))

    def test_database_size(self):
        # The database should stay substantial (Herbie ships 325 rules).
        assert len(all_rules()) >= 150

    def test_rules_for_operators_prunes(self):
        from repro.rules import rules_for_operators

        arith_only = rules_for_operators({"+", "-", "*", "/", "neg"})
        assert 0 < len(arith_only) < len(all_rules())
        for rule in arith_only:
            ops = rule.lhs.operators() | rule.rhs.operators()
            assert "sin" not in ops and "log" not in ops
