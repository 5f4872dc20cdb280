"""The batch compilation engine: cache-aware fan-out over the worker pool.

:func:`run_compile_jobs` is the engine behind
:meth:`repro.api.ChassisSession.compile_many`.  It layers the persistent
cache under the session's :class:`~repro.service.pool.WorkerPool`:

1. every job is fingerprinted and looked up in the cache (parent process,
   so hit/miss stats are centralized and workers stay cache-free);
2. misses go to the worker pool when one is given, and run inline
   otherwise — as do targets not resolvable from the registry by name
   (custom targets hold unpicklable closures);
3. fresh results are stored back, and every ok outcome carries both the
   JSON payload (for reports) and the deserialized
   :class:`~repro.core.pipeline.CompileResult` (for re-scoring).

Cached and freshly-compiled outcomes are indistinguishable apart from the
``cached`` flag: both are round-tripped through the same serialization, so
a warm run reproduces a cold run's report byte-for-byte.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeAlias

from ..accuracy.sampler import SampleConfig, SampleSet
from ..core.loop import CompileConfig
from ..ir.fpcore import FPCore
from ..rival.backends import resolve_backend_name
from ..targets import get_target
from ..targets.target import Target
from .cache import CompileCache, job_fingerprint, target_fingerprint
from .results import core_to_source, result_from_dict
from .scheduler import BatchJob, JobOutcome, job_event, run_job

#: A unit of requested work: a benchmark plus a target (object or registry
#: name), optionally with pre-computed samples (see :func:`run_compile_jobs`).
JobSpec: TypeAlias = (
    tuple[FPCore, "Target | str"] | tuple[FPCore, "Target | str", "SampleSet | None"]
)


def _resolve_target(target: Target | str) -> Target:
    return get_target(target) if isinstance(target, str) else target


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


def run_compile_jobs(
    specs: Sequence[JobSpec],
    config: CompileConfig | None = None,
    sample_config: SampleConfig | None = None,
    cache: CompileCache | str | None = None,
    timeout: float | None = None,
    progress=None,
    pool=None,
    trace: bool = False,
    ledger=None,
    oracle_backend: str | None = None,
) -> list[JobOutcome]:
    """Compile many (benchmark, target) pairs; returns outcomes in order.

    A spec is ``(core, target)`` or ``(core, target, samples)`` — the
    optional :class:`~repro.accuracy.sampler.SampleSet` skips per-job
    sampling and MUST equal what ``sample_core(core, sample_config)``
    would produce (samples are seeded, so precomputing them is purely an
    optimization; the cache fingerprint assumes this equality).

    ``cache`` may be a :class:`CompileCache` or a directory path; ``None``
    disables caching.  ``timeout`` bounds each individual compilation in
    seconds.  ``pool``, when given, is the persistent
    :class:`~repro.service.pool.WorkerPool` that registry-target cache
    misses are dispatched through — even single-job batches, since its
    workers are already warm (sessions with ``jobs >= 2`` pass their own).

    Every other cache miss — all of them without a pool, non-registry
    targets always — runs *inline* in the calling thread.  Inline jobs
    share no process-global mpmath state, so concurrent callers need no
    lock.

    ``trace=True`` asks each freshly-compiled job — wherever it runs —
    to record a span trace, returned on ``JobOutcome.trace`` (cache hits
    have none: no phases ran).  Engine counters come back on
    ``JobOutcome.engine`` unconditionally.

    ``ledger``, when given, is a provenance journal (anything with
    :meth:`~repro.provenance.ledger.ProvenanceLedger.record_job`; taken
    duck-typed so this module never imports the provenance layer): one
    ``"batch"`` record is appended per job — hits in the lookup loop,
    fresh results as outcomes are rebuilt — always in the *parent*
    process; workers never touch the journal.

    ``oracle_backend`` names the oracle backend every job runs (None:
    ``REPRO_ORACLE_BACKEND``, then auto); it rides on each job, so
    pooled workers build the backend their caller chose.
    """
    config = config or CompileConfig()
    sample_config = sample_config or SampleConfig()
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    if isinstance(cache, str):
        cache = CompileCache(cache)

    resolved: list[tuple[FPCore, Target, str, object]] = []
    for spec in specs:
        core, target = spec[0], _resolve_target(spec[1])
        samples = spec[2] if len(spec) > 2 else None
        resolved.append(
            (core, target, job_fingerprint(core, target, config, sample_config), samples)
        )

    outcomes: list[JobOutcome | None] = [None] * len(resolved)
    pool_batch: list[BatchJob] = []
    inline_jobs: list[tuple[BatchJob, Target]] = []
    targets_by_index: dict[int, Target] = {}
    oracle_backend = resolve_backend_name(oracle_backend)

    for index, (core, target, fingerprint, samples) in enumerate(resolved):
        targets_by_index[index] = target
        if cache is not None:
            payload = cache.get(fingerprint)
            if payload is not None:
                benchmark = core.name or "<anonymous>"
                outcomes[index] = JobOutcome(
                    index=index,
                    benchmark=benchmark,
                    target=target.name,
                    status="ok",
                    fingerprint=fingerprint,
                    cached=True,
                    payload=payload,
                )
                if progress is not None:
                    progress(job_event(index, benchmark, target.name, cached=True))
                if ledger is not None:
                    ledger.record_job(
                        "batch", core, target, config, sample_config,
                        fingerprint, cache="hit",
                        oracle_backend=oracle_backend,
                    )
                continue
        job = BatchJob(
            index, core_to_source(core), target.name,
            samples=samples, timeout=timeout, config=config,
            sample_config=sample_config, trace=trace,
            oracle_backend=oracle_backend,
        )
        if pool is not None and _poolable(target):
            pool_batch.append(job)
        else:
            inline_jobs.append((job, target))

    raw: list[dict] = []
    if pool_batch:
        raw.extend(pool.run_batch(pool_batch, timeout=timeout, progress=progress))
    for job, target in inline_jobs:
        outcome = run_job(job, target=target)
        if progress is not None:
            progress(outcome)
        raw.append(outcome)

    for outcome_dict in raw:
        index = outcome_dict["index"]
        core, target, fingerprint, _samples = resolved[index]
        outcome = JobOutcome(
            index=index,
            # Label from the parent's core, not the worker's re-parse, so
            # cold and warm (cache-hit) runs agree on benchmark identity.
            benchmark=core.name or "<anonymous>",
            target=outcome_dict["target"],
            status=outcome_dict["status"],
            fingerprint=fingerprint,
            cached=False,
            elapsed=outcome_dict["elapsed"],
            error_type=outcome_dict["error_type"],
            error=outcome_dict["error"],
            payload=outcome_dict["payload"],
            engine=outcome_dict.get("engine"),
            oracle=outcome_dict.get("oracle"),
            trace=outcome_dict.get("trace"),
            phases=outcome_dict.get("phases"),
        )
        cacheable = outcome.ok and cache is not None
        if cacheable:
            cache.put(fingerprint, outcome.payload)
        if ledger is not None:
            ledger.record_job(
                "batch", core, target, config, sample_config, fingerprint,
                cache="store" if cacheable else "none",
                status=outcome.status,
                elapsed=outcome.elapsed,
                engine=outcome.engine,
                oracle=outcome.oracle,
                oracle_backend=oracle_backend,
                error_type=outcome.error_type or None,
            )
        outcomes[index] = outcome

    final: list[JobOutcome] = []
    for index, outcome in enumerate(outcomes):
        assert outcome is not None, f"job {index} produced no outcome"
        if outcome.ok and outcome.payload is not None:
            outcome.result = result_from_dict(outcome.payload, targets_by_index[index])
        final.append(outcome)
    return final


def iter_ok_results(outcomes: Iterable[JobOutcome]):
    """Yield (outcome, CompileResult) for every successful job."""
    for outcome in outcomes:
        if outcome.ok and outcome.result is not None:
            yield outcome, outcome.result
