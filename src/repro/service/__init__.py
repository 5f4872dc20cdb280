"""Batch compilation service: persistent result cache + worker pool.

The production-facing subsystem layered over the phase pipeline
(:func:`repro.core.pipeline.compile_core`):

* :mod:`repro.service.cache`     — content-addressed persistent cache
* :mod:`repro.service.results`   — JSON round-trip of CompileResult
* :mod:`repro.service.scheduler` — the job function and outcome shape
* :mod:`repro.service.pool`      — the persistent worker pool
* :mod:`repro.service.api`       — the :func:`run_compile_jobs` engine
* :mod:`repro.service.batch`     — the ``repro batch`` CLI command
* :mod:`repro.service.server`    — the ``repro serve`` HTTP front-end

Most callers should go through :class:`repro.api.ChassisSession`, which
owns the cache, pool and evaluator across calls.
"""

from .api import JobSpec, iter_ok_results, run_compile_jobs
from .cache import (
    CacheStats,
    CompileCache,
    config_fingerprint,
    core_fingerprint,
    job_fingerprint,
    sample_fingerprint,
    target_fingerprint,
)
from .pool import WorkerPool
from .results import result_from_dict, result_to_dict
from .scheduler import BatchJob, JobOutcome, JobTimeout, job_event

__all__ = [
    "run_compile_jobs",
    "iter_ok_results",
    "JobSpec",
    "CompileCache",
    "CacheStats",
    "core_fingerprint",
    "sample_fingerprint",
    "target_fingerprint",
    "config_fingerprint",
    "job_fingerprint",
    "result_to_dict",
    "result_from_dict",
    "BatchJob",
    "JobOutcome",
    "JobTimeout",
    "WorkerPool",
    "job_event",
]
