"""Batch compilation service: persistent result cache + worker pool.

The production-facing subsystem layered over the phase pipeline
(:func:`repro.core.pipeline.compile_core`):

* :mod:`repro.service.cache`     — content-addressed persistent cache
* :mod:`repro.service.results`   — JSON round-trip of CompileResult
* :mod:`repro.service.scheduler` — the job function and outcome shape
* :mod:`repro.service.pool`      — the persistent worker pool
* :mod:`repro.service.api`       — the compile-job engine behind every
  session compile, single entries and batches alike
* :mod:`repro.service.batch`     — the ``repro batch`` CLI command
* :mod:`repro.service.server`    — the ``repro serve`` HTTP front-end

Callers go through :class:`repro.api.ChassisSession`, which owns the
cache, pool and oracle backend across calls; ``compile_many`` is the one
public batch entry.
"""

from .api import JobSpec
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
from .scheduler import BatchJob, JobOutcome, JobTimeout

__all__ = [
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
]
