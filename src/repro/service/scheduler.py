"""Compile jobs as plain data: the one job function and its outcome record.

Jobs cross the process boundary as plain data — FPCore source text plus a
target *name* — because targets hold synthesized implementation closures
that cannot be pickled.  Workers re-resolve the target from the registry,
compile, and return a :class:`JobOutcome` carrying the serialized result
payload (the :mod:`repro.service.results` layout) and plain dicts of
counters, so the parent never has to unpickle foreign objects and pool
results are byte-identical to what the cache stores.  The same
:class:`JobOutcome` is what progress callbacks receive, for cache hits
and fresh jobs alike.

Guarantees:

* **Deterministic ordering** — outcomes are returned sorted by job index
  regardless of completion order.
* **Failure capture** — :class:`~repro.core.transcribe.Untranscribable` and
  :class:`~repro.accuracy.sampler.SamplingError` are recorded per job (the
  paper's protocol removes such pairs; callers decide), never swallowed and
  never fatal to the batch.
* **Per-job timeouts** — enforced by a thread-safe cooperative deadline
  (:mod:`repro.deadline`, polled at phase/iteration/sampling boundaries)
  plus ``SIGALRM`` as a hard backstop wherever the job runs in a process's
  main thread (worker processes always do) with no interval timer of the
  caller's running, so a hung compilation frees its pool slot instead of
  wedging the batch — and inline jobs running on *non-main* threads
  (serve handlers, ``submit`` workers) are bounded too.  A session's
  single inline compile, which draws its samples through session locks,
  keeps to the cooperative deadline.
* Inline jobs (no worker pool, or a target the registry cannot rebuild)
  run in the calling process through the exact same job function, so
  serial and pooled runs produce identical payloads.  Every session
  compile is such a job — a single ``compile`` is a one-job batch;
  customized pipelines are ``ChassisSession.run_pipeline`` runs, not jobs.
* **Phases on the outcome** — a job's per-phase seconds ride home on
  its outcome, and the session that folds the outcome is the one place
  they reach the ``repro_phase_seconds`` histogram, wherever the job ran.

The jobs run on the session-owned
:class:`~repro.service.pool.WorkerPool` or inline; see
:func:`repro.service.api.run_compile_jobs`.
"""

from __future__ import annotations

import signal
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..accuracy.sampler import SampleConfig
from ..core.loop import CompileConfig
from ..core.pipeline import CompilePipeline, PipelineContext
from ..deadline import DeadlineExceeded, deadline
from ..egraph.stats import EngineStats, engine_stats_sink
from ..ir.fpcore import parse_fpcore
from ..obs.trace import Trace, span, tracing
from ..rival.backends import make_backend
from ..targets import get_target
from .results import result_to_dict


class JobTimeout(DeadlineExceeded):
    """A single compilation exceeded its time budget.

    Derives (via :class:`~repro.deadline.DeadlineExceeded`) from
    BaseException on purpose: the sampler and e-graph code use broad
    ``except Exception`` guards around per-point evaluation, which would
    otherwise swallow the alarm and let a timed-out job run to completion.
    """


@dataclass(frozen=True)
class BatchJob:
    """One unit of schedulable work, picklable by construction."""

    index: int
    core_source: str
    target_name: str
    #: None (the job samples itself), or the one set the engine handed
    #: all of a call's cache misses of this benchmark (see
    #: :func:`~repro.service.api.run_compile_jobs`).  It MUST equal what
    #: ``sample_core(core, sample_config)`` would produce — the cache
    #: fingerprint assumes samples are a pure function of those two.
    #: The inline job of a one-job call carries a zero-argument callable
    #: instead (a draw through the session's sample cache), called when
    #: the job runs, so a failed or timed-out draw is this job's outcome.
    samples: object | None = None
    #: Per-job timeout (seconds; None = unbounded).
    timeout: float | None = None
    #: The compile and sample configuration of this job.  Like
    #: ``timeout`` they ride on the job, so one warm persistent pool
    #: serves jobs of any configuration without re-initializing workers.
    config: CompileConfig = field(default_factory=CompileConfig)
    sample_config: SampleConfig = field(default_factory=SampleConfig)
    #: Record a span trace of this compilation and ship it back in the
    #: outcome (``repro compile --trace`` with pooled jobs).  Engine
    #: counters ship unconditionally; spans only on request.
    trace: bool = False
    #: Name of the oracle backend the job runs (the caller's session
    #: backend); None resolves ``REPRO_ORACLE_BACKEND``, then auto.
    oracle_backend: str | None = None


@dataclass
class JobOutcome:
    """What happened to one job: the one per-job record.

    :func:`run_job` builds it wherever the job runs, the pool's watchdog
    builds one for a wedged job, and the engine builds one for a cache
    hit.  The engine then sets the parent's benchmark label and the
    fingerprint; outcomes are returned ordered by index.
    """

    index: int
    benchmark: str
    target: str
    status: str  # "ok" | "failed" | "timeout"
    fingerprint: str = ""
    cached: bool = False
    elapsed: float = 0.0
    error_type: str = ""
    error: str = ""
    #: Serialized CompileResult (see service.results) when status == "ok".
    payload: dict | None = None
    #: Deserialized result, attached by the api facade for ok outcomes.
    result: object | None = field(default=None, repr=False)
    #: Engine counters from wherever the job ran (worker process or
    #: inline), as an :meth:`EngineStats.as_dict` dict; None for cache
    #: hits and jobs that did no engine work.  Sessions fold these into
    #: ``SessionStats.engine`` so ``/health`` covers pooled compiles.
    engine: dict | None = None
    #: Oracle counters from wherever the job ran — the per-job backend's
    #: :meth:`OracleCounters.as_dict` dict; None for cache hits.
    #: Sessions fold these into ``SessionStats.rival``.
    oracle: dict | None = None
    #: Serialized :class:`~repro.obs.trace.Trace` when the job asked for
    #: one (``BatchJob.trace``); merged across workers by ``--trace``.
    trace: dict | None = None
    #: Per-phase wall-clock seconds of the compile wherever it ran (the
    #: pipeline's ``phase_seconds``); None for cache hits.
    phases: dict | None = None
    #: The live exception of a job that failed inline (None otherwise:
    #: a traceback does not pickle, so a pooled job's error crosses the
    #: process boundary as ``error_type``/``error`` only; see
    #: :func:`rebuild_error`).
    exception: BaseException | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def rebuild_error(error_type: str, message: str) -> Exception:
    """The exception a job reported by type name, for re-raising in the
    parent: any ``repro`` or builtin exception type with that name, built
    from the message; a :class:`RuntimeError` naming the type otherwise.

    A ``repro`` type whose constructor takes other arguments is built
    without running it, so it still carries the type and the message.
    """
    pending = [Exception]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        builtin = cls.__module__ == "builtins"
        if cls.__name__ != error_type or not (
            builtin or cls.__module__.startswith("repro.")
        ):
            continue
        try:
            return cls(message)
        except Exception:  # noqa: BLE001 - a constructor wanting more
            if builtin:
                break
            error = cls.__new__(cls)
            error.args = (message,)
            return error
    return RuntimeError(f"{error_type}: {message}")


def _alarm_handler(_signum, _frame):
    raise JobTimeout()


def run_job(
    job: BatchJob, target=None, *, keep_error: bool = False
) -> JobOutcome:
    """Compile one job; returns its :class:`JobOutcome`.

    Runs in a worker process, or inline (no pool, or a target the
    registry cannot rebuild); the outcome holds only picklable, JSON-able
    data, so it can cross the process boundary.  ``target`` may be passed
    pre-resolved for inline execution of non-registry targets.
    ``keep_error=True`` (inline callers only) also keeps a failed job's
    live exception on ``JobOutcome.exception``, traceback and attributes
    intact.
    """
    import time

    timeout = job.timeout
    if target is None:
        target = get_target(job.target_name)
    core = parse_fpcore(job.core_source, known_ops=set(target.operators))
    outcome = JobOutcome(
        job.index, core.name or "<anonymous>", target.name, "ok"
    )

    # Per-job oracle: a private backend of the kind the job names (its
    # counters ship home on the outcome — worker instances cannot touch
    # the session's).
    oracle = make_backend(job.oracle_backend)

    # The cooperative deadline (armed below) bounds the compile on any
    # thread; SIGALRM rides along as a hard backstop, but it only arms in
    # the main thread — off-main-thread callers (serve handler threads,
    # submit workers) rely on the deadline alone rather than crashing in
    # signal.signal.  Nor does it arm over the caller's own interval timer
    # (arming would cancel it), or around a session's sample draw (a
    # callable ``samples``), whose locks an asynchronous exception must
    # not interrupt: those jobs keep to the cooperative deadline.
    use_alarm = (
        timeout is not None
        and not callable(job.samples)
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
        and signal.getitimer(signal.ITIMER_REAL)[0] == 0.0
    )
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.monotonic()
    result = None
    # Engine counters always ride home on the outcome (one small dict);
    # span traces only when the job asked (they grow with the compile).
    engine_local = EngineStats()
    trace = (
        Trace(name=f"{outcome.benchmark}:{target.name}")
        if job.trace else None
    )
    trace_arm = tracing(trace) if trace is not None else nullcontext()
    ctx = PipelineContext(
        target=target, config=job.config, sample_config=job.sample_config,
        oracle=oracle, core=core,
        samples=None if callable(job.samples) else job.samples,
    )
    try:
        try:
            with deadline(timeout), engine_stats_sink(engine_local), trace_arm:
                with span(
                    "compile",
                    benchmark=outcome.benchmark, target=target.name,
                ):
                    if callable(job.samples):
                        # The draw is the sample phase's work; the phase
                        # itself then finds the samples in place.
                        drawn = time.perf_counter()
                        ctx.samples = job.samples()
                        ctx.phase_seconds["sample"] = time.perf_counter() - drawn
                    result = CompilePipeline().run(ctx).result
        except Exception as error:
            # Expected failures (Untranscribable, SamplingError: the pair
            # is infeasible) and genuine bugs alike must not kill the batch.
            outcome.status = "failed"
            outcome.error_type = type(error).__name__
            outcome.error = str(error)
            if keep_error:
                outcome.exception = error
        finally:
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
    except DeadlineExceeded:
        # The alarm (or a cooperative check) may fire anywhere in the
        # region above — mid-compile, inside an except handler, or even
        # inside the finally before the disarm completes — so the timeout
        # is caught out here, after the finally has run, and the job is
        # recorded rather than the whole batch dying on an escaped
        # BaseException.
        outcome.status = "timeout"
        outcome.error_type = "JobTimeout"
        outcome.error = f"exceeded {timeout}s"
        result = None
        if use_alarm:  # idempotent re-disarm in case finally was interrupted
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    outcome.elapsed = time.monotonic() - start
    if result is not None:
        outcome.payload = result_to_dict(result)
    if engine_local.any():
        outcome.engine = engine_local.as_dict()
    if ctx.phase_seconds:
        outcome.phases = dict(ctx.phase_seconds)
    counters = oracle.counters()
    if counters.any():
        outcome.oracle = counters.as_dict()
    if trace is not None:
        outcome.trace = trace.as_dict()
    return outcome
