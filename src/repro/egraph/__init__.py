"""E-graph engine: equality saturation, typed and multi extraction."""

from .egraph import EClass, EGraph, GraphSnapshot
from .ematch import instantiate, rule_program, search_pattern
from .extract import (
    ExtractionError,
    Extractor,
    ast_size_cost,
    extract_best,
    real_only_cost,
)
from .multi_extract import extract_variants
from .rewrite import Rewrite, birw, rw
from .runner import RunnerLimits, RunnerReport, run_rules
from .stats import EngineStats, current_sink, engine_stats_sink, stats_delta
from .typed_extract import TypedCostModel, TypedExtractor
from .unionfind import UnionFind

__all__ = [
    "EClass", "EGraph", "GraphSnapshot", "UnionFind",
    "search_pattern", "instantiate", "rule_program",
    "Rewrite", "rw", "birw",
    "RunnerLimits", "RunnerReport", "run_rules",
    "Extractor", "extract_best", "ast_size_cost", "real_only_cost",
    "ExtractionError",
    "TypedExtractor", "TypedCostModel", "extract_variants",
    "EngineStats", "engine_stats_sink", "current_sink", "stats_delta",
]
