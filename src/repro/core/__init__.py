"""Chassis core: the target-aware numerical compiler."""

from .candidates import Candidate, ParetoFrontier
from .isel import instruction_select
from .loop import CompileConfig, ImprovementLoop, improve
from .pipeline import (
    CompilePipeline,
    CompileResult,
    Phase,
    PipelineContext,
    compile_core,
    default_phases,
)
from .output import render, to_c, to_fpcore, to_julia, to_python
from .regimes import infer_regimes
from .series import series_candidates, taylor_coeffs
from .transcribe import Untranscribable, transcribe, transcribe_with_poly

__all__ = [
    "Candidate",
    "ParetoFrontier",
    "CompileConfig",
    "CompileResult",
    "CompilePipeline",
    "PipelineContext",
    "Phase",
    "compile_core",
    "default_phases",
    "improve",
    "ImprovementLoop",
    "instruction_select",
    "infer_regimes",
    "series_candidates",
    "taylor_coeffs",
    "transcribe",
    "transcribe_with_poly",
    "Untranscribable",
    "render",
    "to_c",
    "to_python",
    "to_julia",
    "to_fpcore",
]
