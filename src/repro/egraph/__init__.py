"""E-graph engine: equality saturation, typed and multi extraction."""

from .egraph import EClass, EGraph, GraphSnapshot
from .ematch import instantiate, rule_program, search_pattern
from .multi_extract import extract_variants
from .rewrite import Rewrite, birw, rw
from .runner import RunnerLimits, RunnerReport, run_rules
from .stats import EngineStats, current_sink, engine_stats_sink
from .typed_extract import ExtractionError, TypedCostModel, TypedExtractor
from .unionfind import UnionFind

__all__ = [
    "EClass", "EGraph", "GraphSnapshot", "UnionFind",
    "search_pattern", "instantiate", "rule_program",
    "Rewrite", "rw", "birw",
    "RunnerLimits", "RunnerReport", "run_rules",
    "ExtractionError", "TypedExtractor", "TypedCostModel", "extract_variants",
    "EngineStats", "engine_stats_sink", "current_sink",
]
