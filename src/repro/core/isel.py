"""Instruction selection modulo equivalence (paper section 5.1).

The heavyweight rewrite pass: build an e-graph from a (float) subexpression,
saturate it with mathematical identities *plus* the target's desugar/lower
rules — producing mixed real/float e-classes whose equivalence relation is
"equal as real numbers" — then multi-extract well-typed float variants with
the typed extractor.

Each call saturates a fresh e-graph within a node/iteration/match budget,
so its variants depend only on the subexpression, the target and the
budget.
"""

from __future__ import annotations

import weakref

from ..egraph.egraph import EGraph
from ..egraph.multi_extract import extract_variants
from ..egraph.runner import RunnerLimits, run_rules
from ..egraph.typed_extract import TypedExtractor
from ..ir.expr import Expr
from ..ir.types import F64
from ..rules.registry import rules_for_operators
from ..targets.target import Target
from ..cost.model import TargetCostModel


#: Default saturation budget for one instruction-selection run.  The paper
#: caps e-graphs at 8000 nodes; Python is slower, so the default is lower
#: and configurable via CompileConfig.
DEFAULT_ISEL_LIMITS = RunnerLimits(
    max_iterations=4, max_nodes=2500, max_matches_per_rule=250
)


# Keyed by target identity, not name: a derived target may reuse its
# parent's name with a different operator set.  As with the targets'
# ``_IMPL_CACHE``, a weakref.finalize evicts the entry with its target, so a
# recycled id never serves a stale rule list.  Each rule carries its own
# left-hand-side head set (``Rewrite.heads``), computed once here.
_RULES_CACHE: dict[int, list] = {}


def _rules_for(target: Target) -> list:
    """Math rules pruned to the target's reachable operator vocabulary,
    plus the target's desugaring rules (computed once per target)."""
    cached = _RULES_CACHE.get(id(target))
    if cached is not None:
        return cached
    reachable: set[str] = set()
    for op in target.operators.values():
        reachable |= op.approx.operators()
    math_rules = list(rules_for_operators(reachable))
    rules = math_rules + target.desugar_rules()
    _RULES_CACHE[id(target)] = rules
    weakref.finalize(target, _RULES_CACHE.pop, id(target), None)
    return rules


def instruction_select(
    subexpr: Expr,
    target: Target,
    ty: str = F64,
    var_types: dict[str, str] | None = None,
    limits: RunnerLimits = DEFAULT_ISEL_LIMITS,
    max_variants: int = 40,
) -> list[Expr]:
    """Generate well-typed float variants of ``subexpr`` on ``target``.

    ``subexpr`` may be a float program, a real expression, or mixed; the
    desugaring rules connect all three views inside one e-graph.  Returns
    candidate programs of format ``ty``, cheapest-first, including at least
    the input itself when it is already well-typed.
    """
    var_types = var_types or {name: ty for name in subexpr.free_vars()}
    model = TargetCostModel(target)
    egraph = EGraph()
    root = egraph.add_expr(subexpr)
    run_rules(egraph, _rules_for(target), limits)
    extractor = TypedExtractor(egraph, model, var_types)
    return extract_variants(egraph, extractor, root, ty, limit=max_variants)
