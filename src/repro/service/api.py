"""The compile-job engine: cache-aware fan-out over the worker pool.

:func:`run_compile_jobs` is the one engine behind every plain compile of a
:class:`repro.api.ChassisSession` — a ``compile_many`` batch, and a single
``compile``/``compile_payload``/``submit`` entry as a one-job batch.  It
layers the persistent cache under the session's
:class:`~repro.service.pool.WorkerPool`:

1. every job is looked up in the cache (parent process, so hit/miss stats
   are centralized and workers stay cache-free);
2. misses get their samples from the caller's sample cache when it
   holds them, and misses that share a benchmark's sample fingerprint —
   one core under several targets — share one draw, made up front through
   the caller's ``sampler`` (samples do not depend on the target);
3. misses go to the worker pool when one is given, and run inline through
   the same job function otherwise — as do targets not resolvable from
   the registry by name (custom targets hold unpicklable closures);
4. fresh ok payloads are stored back.

The engine returns plain :class:`~repro.service.scheduler.JobOutcome`
records carrying the JSON payload; it neither deserializes results nor
counts anything.  The session folds every outcome into its stats,
metrics and provenance ledger, and attaches
:class:`~repro.core.pipeline.CompileResult` objects where callers read
them.  Cached and freshly-compiled payloads are the same bytes, so a warm
run reproduces a cold run's report byte-for-byte.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence, TypeAlias

from ..accuracy.sampler import SampleConfig, SampleSet, SamplingError
from ..core.loop import CompileConfig
from ..deadline import DeadlineExceeded
from ..ir.fpcore import FPCore
from ..targets import get_target
from ..targets.target import Target
from .cache import CompileCache, sample_fingerprint, target_fingerprint
from .results import core_to_source
from .scheduler import BatchJob, JobOutcome, run_job

#: A unit of requested work: a benchmark plus a target (object or registry
#: name).  Samples are the engine's business: it shares one draw among a
#: call's jobs of the same benchmark (see :func:`run_compile_jobs`).
JobSpec: TypeAlias = tuple[FPCore, "Target | str"]


def _poolable(target: Target) -> bool:
    """A job can cross process boundaries only if the worker can rebuild
    exactly the same target from the registry by name."""
    try:
        registered = get_target(target.name)
    except (KeyError, ValueError):
        return False
    return registered is target or target_fingerprint(registered) == target_fingerprint(
        target
    )


def cached_outcome(
    cache: CompileCache | None, index: int, core: FPCore, target: Target,
    fingerprint: str,
) -> JobOutcome | None:
    """The outcome of one job answered from ``cache``, or None on a miss
    (or without a cache)."""
    payload = cache.get(fingerprint) if cache is not None else None
    if payload is None:
        return None
    return JobOutcome(
        index=index,
        benchmark=core.name or "<anonymous>",
        target=target.name,
        status="ok",
        fingerprint=fingerprint,
        cached=True,
        payload=payload,
    )


def _shared_samples(
    jobs: Sequence[tuple[FPCore, Target, str]],
    misses: Sequence[int],
    sample_config: SampleConfig,
    sampler: Callable[[FPCore], SampleSet],
    held_samples: Callable[[str], SampleSet | None],
) -> dict[int, SampleSet]:
    """The sample set each of ``misses`` (job indices) is handed, by
    sample fingerprint: the one ``held_samples`` already holds, else one
    draw through ``sampler`` for a group of two or more.  A lone miss
    whose set is not held is left out and samples in its job (pooled
    workers draw in parallel).

    A group whose draw raises :class:`~repro.accuracy.sampler.SamplingError`
    or :class:`~repro.deadline.DeadlineExceeded` is left out too, so each
    of its jobs samples itself and fails on its own (the paper's removal
    protocol is per job).
    """
    groups: dict[str, list[int]] = {}
    for index in misses:
        key = sample_fingerprint(jobs[index][0], sample_config)
        groups.setdefault(key, []).append(index)
    shared: dict[int, SampleSet] = {}
    for key, indices in groups.items():
        samples = held_samples(key)
        if samples is None and len(indices) > 1:
            try:
                samples = sampler(jobs[indices[0]][0])
            except (SamplingError, DeadlineExceeded):
                continue
        if samples is not None:
            shared.update(dict.fromkeys(indices, samples))
    return shared


def run_compile_jobs(
    jobs: Sequence[tuple[FPCore, Target, str]],
    *,
    config: CompileConfig,
    sample_config: SampleConfig,
    sampler: Callable[[FPCore], SampleSet],
    held_samples: Callable[[str], SampleSet | None],
    cache: CompileCache | None = None,
    timeout: float | None = None,
    progress=None,
    pool=None,
    trace: bool = False,
    oracle_backend: str | None = None,
) -> list[JobOutcome]:
    """Compile many jobs; returns their outcomes in job order.

    A job is ``(core, target, fingerprint)``: a parsed benchmark, a
    resolved target and the job fingerprint its caller already computed.

    Samples are the engine's business.  ``sampler`` draws one benchmark's
    samples under ``sample_config`` through the caller's sample cache, and
    ``held_samples`` returns the set that cache already holds for a
    :func:`~repro.service.cache.sample_fingerprint` (None when it holds
    none).  After the cache lookups, cache misses are grouped by sample
    fingerprint; each group gets its held set, or else — for a group of
    two or more — one draw made up front through ``sampler``, and every
    job of the group, inline or pooled, is handed that
    :class:`~repro.accuracy.sampler.SampleSet` (see
    :func:`_shared_samples`).  A lone miss with nothing held samples in
    its job, except the miss of a one-job call that runs inline (a
    session's single compile): it draws through ``sampler`` as it runs,
    so later calls reuse its samples (see
    :func:`~repro.service.scheduler.run_job`).  Samples are seeded, so
    all of this is purely an optimization: the set equals what each job
    would draw.  Hits draw nothing, so a warm rerun stays oracle-free.

    ``cache`` (None disables caching) answers hits and stores fresh ok
    payloads.  ``timeout`` bounds each individual compilation in seconds.
    ``pool``, when given, is the persistent
    :class:`~repro.service.pool.WorkerPool` that registry-target cache
    misses are dispatched through — even single-job batches, since its
    workers are already warm.  Every other miss — all of them without a
    pool, non-registry targets always — runs *inline* in the calling
    thread through the same :func:`~repro.service.scheduler.run_job`.

    ``trace=True`` asks each freshly-compiled job — wherever it runs —
    to record a span trace, returned on ``JobOutcome.trace`` (cache hits
    have none: no phases ran).  Engine and oracle counters and phase
    timings come back on every fresh outcome unconditionally.

    ``progress``, when given, receives each :class:`JobOutcome` as it
    lands: a hit as it is looked up, a fresh job as it finishes (before
    the engine sets its label and fingerprint).

    ``oracle_backend`` names the oracle backend every job runs (None:
    ``REPRO_ORACLE_BACKEND``, then auto); it rides on each job, so
    pooled workers build the backend their caller chose.
    """
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")

    outcomes: list[JobOutcome | None] = [None] * len(jobs)
    misses: list[int] = []
    for index, (core, target, fingerprint) in enumerate(jobs):
        hit = cached_outcome(cache, index, core, target, fingerprint)
        if hit is None:
            misses.append(index)
            continue
        outcomes[index] = hit
        if progress is not None:
            progress(hit)

    shared = _shared_samples(
        jobs, misses, sample_config, sampler, held_samples
    )
    pool_batch: list[BatchJob] = []
    inline_jobs: list[tuple[BatchJob, Target]] = []
    for index in misses:
        core, target, _fingerprint = jobs[index]
        pooled = pool is not None and _poolable(target)
        samples = shared.get(index)
        if samples is None and len(jobs) == 1 and not pooled:
            samples = functools.partial(sampler, core)
        job = BatchJob(
            index, core_to_source(core), target.name,
            samples=samples, timeout=timeout,
            config=config, sample_config=sample_config, trace=trace,
            oracle_backend=oracle_backend,
        )
        if pooled:
            pool_batch.append(job)
        else:
            inline_jobs.append((job, target))

    fresh: list[JobOutcome] = []
    if pool_batch:
        fresh.extend(
            pool.run_batch(pool_batch, timeout=timeout, progress=progress)
        )
    for job, target in inline_jobs:
        outcome = run_job(job, target=target, keep_error=True)
        if progress is not None:
            progress(outcome)
        fresh.append(outcome)

    for outcome in fresh:
        core, _target, fingerprint = jobs[outcome.index]
        # Label from the parent's core, not the worker's re-parse, so
        # cold and warm (cache-hit) runs agree on benchmark identity.
        outcome.benchmark = core.name or "<anonymous>"
        outcome.fingerprint = fingerprint
        if outcome.ok and cache is not None:
            cache.put(fingerprint, outcome.payload)
        outcomes[outcome.index] = outcome
    return outcomes
