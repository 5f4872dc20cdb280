"""repro — a reproduction of Chassis, the target-aware numerical compiler.

Chassis (ASPLOS 2025) compiles real-number expressions into Pareto frontiers
of floating-point programs specialized to a *target description*: a list of
operators, each relating a floating-point instruction to the real expression
it approximates, with cost and accuracy information.

Quickstart (the curated surface lives in :mod:`repro.api`)::

    from repro.api import ChassisSession

    with ChassisSession() as session:
        result = session.compile(
            "(FPCore (x) :pre (< 0.001 x 0.999) "
            "(* 1/2 (log (/ (+ 1 x) (- 1 x)))))",
            "fdlibm",
        )
    for candidate in result.frontier:
        print(candidate.cost, candidate.error, candidate.program)

:func:`compile_core` compiles once without session state.  The README's
"Architecture map" is the system inventory; ``repro report`` regenerates
every reproduced table and figure (README, "Reports & provenance").
"""

from .accuracy import SampleConfig, bits_of_error, sample_core, score_program
from .core import (
    Candidate,
    CompileConfig,
    CompilePipeline,
    CompileResult,
    ParetoFrontier,
    compile_core,
    instruction_select,
    render,
    transcribe,
)
from .ir import FPCore, parse_expr, parse_fpcore, parse_fpcores
from .perf import PerfSimulator
from .session import ChassisSession, JobHandle
from .targets import Target, all_targets, get_target, opdef

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "FPCore",
    "parse_fpcore",
    "parse_fpcores",
    "parse_expr",
    "Target",
    "get_target",
    "all_targets",
    "opdef",
    "ChassisSession",
    "JobHandle",
    "compile_core",
    "CompileConfig",
    "CompilePipeline",
    "CompileResult",
    "Candidate",
    "ParetoFrontier",
    "instruction_select",
    "transcribe",
    "render",
    "sample_core",
    "SampleConfig",
    "score_program",
    "bits_of_error",
    "PerfSimulator",
]
