"""``repro.api`` — the curated public API surface.

Everything a consumer needs, in one import::

    from repro.api import ChassisSession, CompileConfig, SampleConfig

    with ChassisSession(cache=".repro-cache", jobs=4) as session:
        result = session.compile(core, "c99")

Three layers, smallest first:

* **Session** — :class:`ChassisSession` owns the oracle backend, sample
  cache, persistent result cache and worker pool; :class:`JobHandle` is
  its async-style submit/poll handle.
* **Pipeline** — :class:`CompilePipeline` and the :class:`Phase` protocol
  let callers skip, replace, or instrument the parse → sample →
  transcribe → improve → regimes → score phases of one compilation.
* **Service** — the batch engine types (:class:`JobOutcome`,
  :class:`CompileCache`, ``JobSpec``) and the ``repro serve`` front-end
  (:func:`serve`, :func:`create_server`).
* **Execution** — the empirical backend (:mod:`repro.exec`): build and run
  emitted code (:func:`executable_for`), cross-check it against the oracle
  (:func:`validate_program`), measure it (:func:`measure_executable`) and
  calibrate the cost model against the measurements
  (:func:`collect_calibration`).

One-shot callers that want no session state use
:func:`~repro.core.pipeline.compile_core`.
"""

from .accuracy.sampler import SampleConfig, SampleSet, SamplingError
from .core.loop import CompileConfig
from .deadline import DeadlineExceeded, check_deadline, deadline
from .core.pipeline import (
    PHASE_NAMES,
    CompilePipeline,
    CompileResult,
    Phase,
    PipelineContext,
    PipelineError,
    compile_core,
    default_phases,
)
from .core.transcribe import Untranscribable
from .exec import (
    BuildCache,
    BuildError,
    CalibrationReport,
    ExecutableProgram,
    ExecutionRun,
    TimingReport,
    ValidationReport,
    backend_availability,
    c_backend_available,
    calibrate,
    collect_calibration,
    executable_for,
    find_compiler,
    measure_executable,
    validate_program,
)
from .ir.fpcore import FPCore, parse_fpcore, parse_fpcores
from .provenance.ledger import ProvenanceLedger
from .service.api import JobSpec
from .service.cache import CompileCache, job_fingerprint
from .service.pool import WorkerPool
from .service.scheduler import JobOutcome, JobTimeout
from .service.server import create_server, serve
from .session import ChassisSession, JobHandle, SessionStats
from .targets import Target, all_targets, get_target

__all__ = [
    # session
    "ChassisSession",
    "JobHandle",
    "SessionStats",
    # pipeline
    "CompilePipeline",
    "PipelineContext",
    "PipelineError",
    "Phase",
    "PHASE_NAMES",
    "default_phases",
    "compile_core",
    "CompileResult",
    "CompileConfig",
    # sampling
    "SampleConfig",
    "SampleSet",
    "SamplingError",
    "Untranscribable",
    # deadlines
    "DeadlineExceeded",
    "deadline",
    "check_deadline",
    # batch service
    "JobSpec",
    "JobOutcome",
    "JobTimeout",
    "WorkerPool",
    "CompileCache",
    "job_fingerprint",
    # provenance
    "ProvenanceLedger",
    # server front-end
    "serve",
    "create_server",
    # empirical execution
    "BuildCache",
    "BuildError",
    "CalibrationReport",
    "ExecutableProgram",
    "ExecutionRun",
    "TimingReport",
    "ValidationReport",
    "backend_availability",
    "c_backend_available",
    "calibrate",
    "collect_calibration",
    "executable_for",
    "find_compiler",
    "measure_executable",
    "validate_program",
    # IR / targets
    "FPCore",
    "parse_fpcore",
    "parse_fpcores",
    "Target",
    "get_target",
    "all_targets",
]
