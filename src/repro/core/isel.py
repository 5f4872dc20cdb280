"""Instruction selection modulo equivalence (paper section 5.1).

The heavyweight rewrite pass: build an e-graph from a (float) subexpression,
saturate it with mathematical identities *plus* the target's desugar/lower
rules — producing mixed real/float e-classes whose equivalence relation is
"equal as real numbers" — then multi-extract well-typed float variants with
the typed extractor.

Saturation dominates the improvement loop's cost, and the loop asks for
variants of the *same* subexpression many times (candidates share subtrees,
and localization re-nominates hot paths across iterations).  A
:class:`SaturationCache` therefore memoizes saturated e-graphs per
(subexpression, ruleset, limits) within one loop run — extraction is cheap
against a cached graph, and re-extraction for a different requested format
reuses the cached typed extractor outright.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

from ..egraph.egraph import EGraph
from ..egraph.multi_extract import extract_variants
from ..egraph.runner import RunnerLimits, RunnerReport, run_rules
from ..egraph.stats import current_sink
from ..egraph.typed_extract import TypedExtractor
from ..ir.expr import Expr
from ..ir.types import F64
from ..obs.metrics import METRICS
from ..rules.registry import rules_for_operators
from ..targets.target import Target
from ..cost.model import TargetCostModel


#: Default saturation budget for one instruction-selection run.  The paper
#: caps e-graphs at 8000 nodes; Python is slower, so the default is lower
#: and configurable via CompileConfig.
DEFAULT_ISEL_LIMITS = RunnerLimits(
    max_iterations=4, max_nodes=2500, max_matches_per_rule=250, time_limit=8.0
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


@dataclass
class _SaturatedEntry:
    """One memoized saturation: the graph, its root, and warm extractors."""

    egraph: EGraph
    root: int
    report: RunnerReport
    #: frozen var_types -> TypedExtractor (reused while the graph's
    #: generation is unchanged, which it always is — extraction never
    #: mutates the graph).
    extractors: dict[tuple, TypedExtractor] = field(default_factory=dict)


class SaturationCache:
    """Saturated e-graphs memoized per (subexpression, target, limits).

    Owned by one :class:`~repro.core.loop.ImprovementLoop` run (the ruleset
    is a function of the target there, so the target name keys the ruleset
    too).  Entries are LRU-bounded: each holds an e-graph of up to
    ``limits.max_nodes`` nodes.  Saturation results are deterministic in
    the inputs, except when the wall-clock ``time_limit`` cuts a run short;
    such a graph is returned but never stored, so a hit is always
    equivalent to re-running the rules — minus the entire saturation cost.
    """

    def __init__(self, max_entries: int = 64):
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, _SaturatedEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def saturated(
        self, subexpr: Expr, target: Target, limits: RunnerLimits
    ) -> _SaturatedEntry:
        """The saturated e-graph for ``subexpr`` (cached or fresh)."""
        key = (subexpr, target.name, limits.key())
        entry = self._entries.get(key)
        sink = current_sink()
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            if sink is not None:
                sink.saturation_hits += 1
            METRICS.counter(
                "repro_saturation_cache_total",
                "Improvement-loop saturation requests by cache outcome.",
                result="hit",
            ).inc()
            return entry
        self.misses += 1
        if sink is not None:
            sink.saturation_misses += 1
        METRICS.counter(
            "repro_saturation_cache_total",
            "Improvement-loop saturation requests by cache outcome.",
            result="miss",
        ).inc()
        egraph = EGraph()
        root = egraph.add_expr(subexpr)
        report = run_rules(egraph, _rules_for(target), limits)
        entry = _SaturatedEntry(egraph=egraph, root=root, report=report)
        if report.stop_reason == "time-limit":
            return entry
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return entry

    def extractor(
        self,
        entry: _SaturatedEntry,
        model: TargetCostModel,
        var_types: dict[str, str],
    ) -> TypedExtractor:
        """A typed extractor over a cached graph, itself cached."""
        key = tuple(sorted(var_types.items()))
        extractor = entry.extractors.get(key)
        if extractor is None:
            extractor = TypedExtractor(entry.egraph, model, var_types)
            entry.extractors[key] = extractor
        return extractor


def instruction_select(
    subexpr: Expr,
    target: Target,
    ty: str = F64,
    var_types: dict[str, str] | None = None,
    limits: RunnerLimits = DEFAULT_ISEL_LIMITS,
    max_variants: int = 40,
    cache: SaturationCache | None = None,
) -> list[Expr]:
    """Generate well-typed float variants of ``subexpr`` on ``target``.

    ``subexpr`` may be a float program, a real expression, or mixed; the
    desugaring rules connect all three views inside one e-graph.  Returns
    candidate programs of format ``ty``, cheapest-first, including at least
    the input itself when it is already well-typed.  ``cache`` (when given)
    memoizes the saturated e-graph and typed extractor across calls, so
    repeated selections of one subexpression only pay for extraction.
    """
    var_types = var_types or {name: ty for name in subexpr.free_vars()}
    model = TargetCostModel(target)
    if cache is not None:
        entry = cache.saturated(subexpr, target, limits)
        extractor = cache.extractor(entry, model, var_types)
        return extract_variants(
            entry.egraph, extractor, entry.root, ty, limit=max_variants
        )
    egraph = EGraph()
    root = egraph.add_expr(subexpr)
    run_rules(egraph, _rules_for(target), limits)
    extractor = TypedExtractor(egraph, model, var_types)
    return extract_variants(egraph, extractor, root, ty, limit=max_variants)
