"""The session API: one warm object that owns every per-process resource.

A :class:`ChassisSession` holds, for its whole lifetime,

* one batched :class:`~repro.rival.backends.OracleBackend` (the oracle),
* an in-memory LRU of seeded sample sets (keyed by benchmark content),
* an optional persistent :class:`~repro.service.cache.CompileCache`,
* per-target cost-model and performance-simulator instances,
* a **persistent** :class:`~repro.service.pool.WorkerPool` (``jobs >= 2``):
  warm worker processes that run every plain compile cache miss — single
  compiles and batch calls alike — until :meth:`close`,
* the per-job timeout, enforced everywhere — pool workers *and* inline
  compiles on any thread — via :mod:`repro.deadline`,
* a thread pool backing the async-style :meth:`submit`/:class:`JobHandle`,
* the empirical execution layer (:mod:`repro.exec`): a content-addressed C
  build cache next to the persistent compile cache, loaded-executable and
  validation-report LRUs behind :meth:`execute`/:meth:`validate`.

Every consumer — the CLI, ``repro serve``, the experiment runners, the
baselines — goes through a session, so repeated requests hit warm state
instead of paying process start-up each time.  One-shot callers that want
no session state use :func:`repro.core.pipeline.compile_core`.

There is one compile path.  :meth:`~ChassisSession.compile_many` hands
its jobs to the engine :func:`repro.service.api.run_compile_jobs`, and
every plain single entry — :meth:`~ChassisSession.compile`,
:meth:`~ChassisSession.compile_payload`, :meth:`~ChassisSession.submit`,
serve ``/compile`` — is a one-job batch through the same engine.  Each
job ends as one :class:`~repro.service.scheduler.JobOutcome`, and that
record is the only input to :class:`SessionStats`, the
``repro_compiles_total`` counter, the provenance ledger and the thread's
:meth:`~ChassisSession.last_phase_timings` /
:meth:`~ChassisSession.last_provenance` view.  The engine also owns
sample sharing: a call's cache misses of one benchmark share one set
from the session's sample cache — the one it holds, or one draw through
:meth:`~ChassisSession.samples_for`, passed in as the engine's
``sampler`` — so callers pass plain ``(core, target)`` specs.

Synopsis::

    from repro.api import ChassisSession

    with ChassisSession(cache=".repro-cache", jobs=4) as session:
        result = session.compile("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))",
                                 "c99")
        outcomes = session.compile_many([(core, "c99"), (core, "avx")])
        handle = session.submit(core, "fdlibm")
        ...                      # do other work
        result = handle.result() # block for the compilation

A compile takes only the knobs a job has (``config``, ``sample_config``,
``timeout``).  Customized and partial runs go through
:meth:`~ChassisSession.run_pipeline`, which returns the pipeline context
and never touches the cache: ``session.run_pipeline(core, t,
skip=("regimes",)).result`` compiles without branch inference,
``replace={"sample": MyPhase()}`` swaps a phase, and :meth:`improve` is
the score-free variant the Herbie baseline uses.  Job outcomes and those
runs are the only two feeds of the ``repro_phase_seconds`` histogram.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from .accuracy.sampler import SampleConfig, SampleSet, sample_core
from .accuracy.scoring import score_program
from .core.candidates import ParetoFrontier
from .core.loop import CompileConfig
from .core.pipeline import (
    CompilePipeline,
    CompileResult,
    Phase,
    PhaseHook,
    PipelineContext,
)
from .cost.model import TargetCostModel
from .deadline import check_deadline, deadline
from .egraph.stats import EngineStats, engine_stats_sink
from .exec.builder import BuildCache
from .exec.executable import (
    ExecutableProgram,
    ExecutionRun,
    backend_availability,
    executable_for,
)
from .exec.validate import ValidationReport, validate_executable
from .ir.expr import Expr
from .ir.fpcore import FPCore, parse_fpcore
from .ir.parser import parse_expr
from .ir.printer import expr_to_sexpr
from .obs.metrics import METRICS
from .obs.trace import span
from .perf.simulator import PerfSimulator
from .provenance.ledger import ProvenanceLedger
from .rival.backends import OracleCounters, make_backend, resolve_backend_name
from .service.api import JobSpec, _poolable, cached_outcome, run_compile_jobs
from .service.cache import (
    CompileCache,
    core_fingerprint,
    job_fingerprint,
    sample_fingerprint,
    target_fingerprint,
)
from .service.pool import WorkerPool
from .service.results import result_from_dict
from .service.scheduler import JobOutcome, JobTimeout, rebuild_error
from .targets import all_targets, get_target
from .targets.target import Target

#: Sample sets a session keeps (least recently used evicted first).
MAX_SAMPLE_ENTRIES = 256


@dataclass
class OracleStats:
    """Always zero: no session lock serializes oracle work, so nothing
    waits for or holds one.  Kept only because perfbench's report-only
    traced ``compile``/``score`` runs still read
    ``session.stats.oracle.*``."""

    wait_seconds: float = 0.0
    hold_seconds: float = 0.0


@dataclass
class SessionStats:
    """Counters over one session's lifetime (surfaced by ``/health``).

    ``compiles``/``cache_hits``/``failures``/``timeouts`` count compile
    jobs — single entries and batch jobs alike — by disposition, folded
    from their :class:`JobOutcome` records.
    """

    compiles: int = 0
    cache_hits: int = 0
    failures: int = 0
    timeouts: int = 0
    sample_hits: int = 0
    sample_misses: int = 0
    batches: int = 0
    submitted: int = 0
    #: Empirical-execution counters (the exec subsystem).
    executions: int = 0
    validations: int = 0
    validation_hits: int = 0
    #: E-graph engine counters (e-nodes built, matches found/applied,
    #: rule searches, stop reasons), shipped back on ``JobOutcome.engine``
    #: by every compile job wherever it ran, plus those of
    #: :meth:`ChassisSession.run_pipeline` runs, so ``/health`` covers the
    #: whole session.
    engine: EngineStats = field(default_factory=EngineStats)
    #: Always zero (see :class:`OracleStats`).
    oracle: OracleStats = field(default_factory=OracleStats)
    #: Oracle-backend counters every compile job ships home on
    #: ``JobOutcome.oracle`` (each job runs its own backend) — the rival
    #: twin of ``engine``.  The session backend counts the rest: the
    #: draws through the session sample cache (inline single compiles,
    #: the engine's shared draws) and :meth:`ChassisSession.run_pipeline`
    #: runs.
    rival: OracleCounters = field(default_factory=OracleCounters)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


#: The ``repro_compiles_total`` label of a job disposition, and the
#: :class:`SessionStats` counter it bumps.
_COUNTER_OF = {
    "cache_hit": "cache_hits",
    "ok": "compiles",
    "timeout": "timeouts",
    "failure": "failures",
}


def _disposition(outcome: JobOutcome) -> str:
    """What became of one compile job: a key of :data:`_COUNTER_OF`."""
    if outcome.cached:
        return "cache_hit"
    if outcome.ok:
        return "ok"
    return "timeout" if outcome.status == "timeout" else "failure"


def _observe_phases(phases: dict[str, float] | None) -> None:
    """Record one run's per-phase wall clock in the ``repro_phase_seconds``
    histogram (nothing for a cache hit, which ran no phase)."""
    for phase, seconds in (phases or {}).items():
        METRICS.histogram(
            "repro_phase_seconds",
            "Wall-clock seconds spent in each compile pipeline phase.",
            phase=phase,
        ).observe(seconds)


class _LastEntry(threading.local):
    """This thread's most recent compile entry: its outcome and the
    ledger record written for it (None without a ledger)."""

    outcome: JobOutcome | None = None
    record: dict | None = None


@dataclass
class JobHandle:
    """An async-style handle on one in-flight compilation."""

    benchmark: str
    target: str
    _future: Future = field(repr=False)

    def done(self) -> bool:
        return self._future.done()

    def poll(self) -> str:
        """Non-blocking status: ``"pending"``, ``"ok"`` or ``"failed"``."""
        if not self._future.done():
            return "pending"
        return "failed" if self._future.exception() is not None else "ok"

    def result(self, timeout: float | None = None) -> CompileResult:
        """Block until done; re-raises the compilation's exception if any."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        return self._future.exception(timeout)


def targets_info() -> list[dict]:
    """JSON-able description of every registered target (``/targets``,
    ``repro targets --json``) — reads only the registry, no session needed.

    ``capabilities`` carries execution metadata per target: which
    languages its programs are emitted in and which empirical backends
    (C build / sandboxed Python) can run them on this machine, so clients
    can tell which targets support empirical validation before posting a
    ``/validate`` job.
    """
    return [
        {
            "name": target.name,
            "operators": len(target.operators),
            "linkage": target.linkage,
            "if_style": target.if_style,
            "cost_source": target.cost_source,
            "description": target.description,
            "capabilities": backend_availability(target),
        }
        for target in all_targets()
    ]


class ChassisSession:
    """A long-lived compilation session; see the module docstring.

    ``config``/``sample_config`` are the session defaults (overridable per
    call); ``cache`` is a :class:`CompileCache`, a directory path, or None;
    ``jobs``/``timeout`` parameterize every compile job and the
    :meth:`submit` pool.  Sessions may be shared across threads (the serve front-end and
    :meth:`submit` do): mutable session state sits behind one lock, and
    in-process compiles on different threads run concurrently.  No
    process-global mpmath state is involved: the oracle's ladder passes
    its precision explicitly on raw libmp values, and series expansion
    borrows a private mpmath context.  Sampling batches through the
    session's oracle backend (``oracle_backend=`` /
    ``REPRO_ORACLE_BACKEND``).  Duplicate concurrent requests for one job
    share a per-fingerprint gate, so the later one reads the earlier
    one's cached result.  Plain compiles — :meth:`compile`,
    :meth:`submit`, :meth:`compile_payload`, serve ``/compile`` and every
    :meth:`compile_many` job — are jobs of one engine
    (:func:`~repro.service.api.run_compile_jobs`).  With ``jobs >= 2``,
    registry-target misses run on the session's persistent
    :class:`~repro.service.pool.WorkerPool`, whose workers stay warm
    across calls; otherwise they run inline through the same job
    function.  ``timeout`` bounds each compilation wherever it runs
    (cooperative deadline on any thread, SIGALRM backstop in pool workers
    and for inline :meth:`compile_many` jobs on a main thread).
    """

    def __init__(
        self,
        *,
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
        cache: CompileCache | str | None = None,
        jobs: int = 1,
        timeout: float | None = None,
        oracle_backend: str | None = None,
        ledger: ProvenanceLedger | str | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.config = config or CompileConfig()
        self.sample_config = sample_config or SampleConfig()
        self.cache = CompileCache(cache) if isinstance(cache, str) else cache
        self.jobs = jobs
        self.timeout = timeout
        #: Resolved oracle-backend name: the ``oracle_backend=`` argument,
        #: else ``REPRO_ORACLE_BACKEND``, else ``auto`` (the numpy fast
        #: path).  Raises ValueError for unknown names.
        self.oracle_backend = resolve_backend_name(oracle_backend)
        #: Provenance journal: explicit ``ledger=`` (path or instance)
        #: wins; otherwise one is created next to the persistent cache —
        #: lineage comes with caching by default — unless disabled via
        #: ``REPRO_PROVENANCE=0``.  Sessions without a persistent cache
        #: keep no ledger (nothing outlives them to trace back to).
        if isinstance(ledger, (str, os.PathLike)):
            ledger = ProvenanceLedger(ledger)
        if (
            ledger is None
            and self.cache is not None
            and os.environ.get("REPRO_PROVENANCE", "1") != "0"
        ):
            ledger = ProvenanceLedger(self.cache.root / "provenance.jsonl")
        self.ledger = ledger
        self.stats = SessionStats()
        self._lock = threading.RLock()
        #: Per-thread record of the last compile entry, read by
        #: :meth:`last_phase_timings` and :meth:`last_provenance`.
        self._last = _LastEntry()
        self._samples: OrderedDict[str, SampleSet] = OrderedDict()
        #: Per-fingerprint gates serializing duplicate *sampling* requests
        #: (the global-lock dedup this replaces serialized all sampling).
        self._sample_gates: dict[str, threading.Lock] = {}
        #: Per-fingerprint gates serializing duplicate *compiles*;
        #: see :meth:`_gate`.
        self._compile_gates: dict[str, threading.Lock] = {}
        #: The session's batched oracle backend: the sample cache draws
        #: through it, as do :meth:`run_pipeline` runs, and it counts that
        #: work itself.  Compile jobs build their own per job (see
        #: ``scheduler.run_job``) and ship the counts home.
        self.oracle = make_backend(self.oracle_backend)
        # Keyed by id() (targets are unhashable frozen objects); entries
        # are evicted by a weakref.finalize when their target dies, so a
        # long-lived session does not retain every Target it ever saw —
        # same idiom as the target-fingerprint cache.
        self._simulators: dict[int, PerfSimulator] = {}
        #: Loaded executables (content-keyed LRU): repeated execute /
        #: validate calls on the same program reuse the loaded library or
        #: compiled Python function instead of re-emitting and re-linking.
        self._executables: OrderedDict[tuple, ExecutableProgram] = OrderedDict()
        #: Validation reports, cached like compile results are.
        self._validations: OrderedDict[tuple, ValidationReport] = OrderedDict()
        #: Content-addressed C build cache; lives next to the persistent
        #: compile cache when one is configured, else an ephemeral dir.
        self._build_cache: BuildCache | None = None
        self._executor: ThreadPoolExecutor | None = None
        #: Persistent worker pool (jobs >= 2), created on first batch use
        #: so sessions that never fan out never spawn processes.
        self._pool: WorkerPool | None = None
        self._closed = False

    # --- resource resolution --------------------------------------------------------

    def resolve_target(self, target: Target | str) -> Target:
        """Registry names become Targets; Targets pass through."""
        return get_target(target) if isinstance(target, str) else target

    def parse(self, core: FPCore | str, target: Target | None = None) -> FPCore:
        """Parse FPCore source (the pipeline's parse phase, session-side)."""
        if isinstance(core, FPCore):
            return core
        known_ops = set(target.operators) if target is not None else None
        return parse_fpcore(core, known_ops=known_ops)

    def cost_model(self, target: Target | str) -> TargetCostModel:
        """A cost model for ``target`` (construction is trivial; this
        exists so consumers resolve names through one place)."""
        return TargetCostModel(self.resolve_target(target))

    def simulator(self, target: Target | str) -> PerfSimulator:
        """This session's (cached) performance simulator for ``target``.

        The cache entry lives exactly as long as the target: a
        ``weakref.finalize`` evicts it when the target is collected (the
        simulator holds its target weakly, so the cache itself never pins
        a target a caller has dropped).
        """
        target = self.resolve_target(target)
        with self._lock:
            simulator = self._simulators.get(id(target))
            if simulator is None:
                simulator = self._simulators[id(target)] = PerfSimulator(target)
                weakref.finalize(target, self._simulators.pop, id(target), None)
            return simulator

    def _sample_cache_get(self, key: str) -> SampleSet | None:
        with self._lock:
            cached = self._samples.get(key)
            if cached is not None:
                self._samples.move_to_end(key)
                self.stats.sample_hits += 1
            return cached

    def samples_for(
        self,
        core: FPCore,
        sample_config: SampleConfig | None = None,
        *,
        timeout: float | None = None,
    ) -> SampleSet:
        """Seeded samples for one benchmark, cached across the session.

        Raises :class:`~repro.accuracy.sampler.SamplingError` when too few
        valid points exist (never cached: the retry might be configured
        differently).  ``timeout`` overrides the session default for this
        call; sampling past its deadline raises
        :class:`~repro.deadline.DeadlineExceeded`.
        """
        sample_config = sample_config or self.sample_config
        key = sample_fingerprint(core, sample_config)
        cached = self._sample_cache_get(key)
        if cached is not None:
            return cached
        with self._lock:
            self.stats.sample_misses += 1
        # Duplicate requests are deduplicated by a per-fingerprint gate: a
        # concurrent identical request samples once, and the one that
        # waited re-checks the cache.  (A contended duplicate therefore
        # records one miss and one hit, as before.)
        with self._gate(self._sample_gates, key):
            cached = self._sample_cache_get(key)
            if cached is not None:
                return cached
            with deadline(self.timeout if timeout is None else timeout):
                with span("phase.sample", benchmark=core.name or "<anonymous>"):
                    samples = sample_core(
                        core, sample_config, oracle=self.oracle
                    )
            with self._lock:
                self._samples[key] = samples
                while len(self._samples) > MAX_SAMPLE_ENTRIES:
                    self._samples.popitem(last=False)
        return samples

    # --- single compilations --------------------------------------------------------

    def run_pipeline(
        self,
        core: FPCore | str,
        target: Target | str,
        *,
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
        samples: SampleSet | None = None,
        skip: tuple[str, ...] | list[str] = (),
        replace: dict[str, Phase] | None = None,
        before: PhaseHook | None = None,
        after: PhaseHook | None = None,
        timeout: float | None = None,
    ) -> PipelineContext:
        """Run the phase pipeline with session-owned resources; returns the
        full context.  ``ctx.result`` is the :class:`CompileResult` of a run
        that reached *score*; partial runs leave their product (e.g.
        ``skip=("score",)`` leaves ``ctx.train_frontier``).

        The one way to customize a compilation: ``skip``/``replace`` phases,
        ``before``/``after`` hooks and caller-supplied ``samples``.  A run
        is not a job: it never reads or writes the persistent cache
        (its product need not be a full compilation of the seeded samples
        the fingerprint describes, and hooks must see phases run), and it
        feeds ``stats.engine`` and ``repro_phase_seconds`` — also when it
        raises — but no compile counter or ledger record.

        ``timeout`` (default: the session's) arms one thread-safe
        cooperative deadline around sampling and the pipeline together, so
        a run is bounded by it on *any* thread, raising
        :class:`~repro.deadline.DeadlineExceeded`.
        """
        target = self.resolve_target(target)
        sample_config = sample_config or self.sample_config
        core = self.parse(core, target)
        timeout = self.timeout if timeout is None else timeout
        ctx = PipelineContext(
            target=target,
            config=config or self.config,
            sample_config=sample_config,
            oracle=self.oracle,
            core=core,
            samples=samples,
        )
        pipeline = CompilePipeline(
            skip=skip, replace=replace, before=before, after=after
        )
        engine = EngineStats()
        try:
            with deadline(timeout), engine_stats_sink(engine), span(
                "compile",
                benchmark=core.name or "<anonymous>", target=target.name,
            ):
                if samples is None and "sample" not in skip and (
                    replace is None or "sample" not in replace
                ):
                    # Session pre-sampling makes the pipeline's own sample
                    # phase a no-op; the real draw is that phase's time, so
                    # the breakdown sums to the compile's wall clock.
                    drawn = time.perf_counter()
                    ctx.samples = self.samples_for(
                        core, sample_config, timeout=timeout
                    )
                    ctx.phase_seconds["sample"] = time.perf_counter() - drawn
                return pipeline.run(ctx)
        finally:
            # Folded even when the run times out or fails partway.
            if engine.any():
                with self._lock:
                    self.stats.engine.merge(engine)
            _observe_phases(ctx.phase_seconds)

    def last_phase_timings(self) -> dict[str, float] | None:
        """Per-phase wall-clock seconds of this thread's most recent fresh
        compile — parse/sample/transcribe/improve/regimes/score — or
        ``None`` when the last compile entry was a warm cache hit (no
        phases ran).  Thread-local, so concurrent serve handlers each see
        their own compile's breakdown."""
        outcome = self._last.outcome
        return None if outcome is None else outcome.phases

    def last_provenance(self) -> dict | None:
        """Provenance of this thread's most recent compile entry, or None
        when no ledger is configured (or the thread never compiled).

        Returns the ledger record written for the entry plus — for warm
        cache hits — the resolved *origin* record of the fresh
        compilation that produced the cached bytes (so warm responses are
        auditable; the serve ``/compile`` route attaches this on the
        opt-in ``provenance`` knob, outside the byte-identical payload).
        The origin resolve scans the journal, which is why it happens
        here, lazily, and not on every hit."""
        outcome, record = self._last.outcome, self._last.record
        if outcome is None or record is None:
            return None
        return {
            "fingerprint": outcome.fingerprint,
            "cached": outcome.cached,
            "record": record,
            "origin": (
                self.ledger.resolve(outcome.fingerprint)
                if outcome.cached else record
            ),
        }

    def provenance_for(self, fingerprint: str) -> list[dict]:
        """Every ledger record of one job fingerprint (8+-char prefixes
        match), oldest first; empty without a ledger."""
        if self.ledger is None:
            return []
        return self.ledger.records_for(fingerprint)

    def compile(
        self,
        core: FPCore | str,
        target: Target | str,
        *,
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
        timeout: float | None = None,
    ) -> CompileResult:
        """Compile one benchmark for one target through the warm session.

        A one-job :meth:`compile_many` batch held behind a per-fingerprint
        gate: the persistent cache answers it if it can, else the job
        compiles — on the session's warm worker pool with ``jobs >= 2``,
        inline otherwise, sampling through the session's sample cache —
        and its fresh result is stored; concurrent identical calls compile
        once.  A failed job raises its error — the exception itself when
        the job ran inline, one rebuilt from its type name and message when
        it ran on the pool — and a timed-out one
        :class:`~repro.service.scheduler.JobTimeout`.

        It takes the knobs a job has and no others; skipped or replaced
        phases, hooks and caller-supplied samples are :meth:`run_pipeline`
        runs (``run_pipeline(...).result``), which stay out of the cache.

        ``timeout`` overrides the session default for this call; running
        past it raises :class:`~repro.deadline.DeadlineExceeded` (works
        from any thread — serve handlers, ``submit`` workers).
        """
        outcome = self._compile_entry(
            core, target,
            config=config, sample_config=sample_config, timeout=timeout,
        )
        if outcome.result is None:
            outcome.result = result_from_dict(
                outcome.payload, self.resolve_target(target)
            )
        return outcome.result

    def compile_payload(
        self,
        core: FPCore | str,
        target: Target | str,
        *,
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
        timeout: float | None = None,
    ) -> tuple[dict, bool]:
        """Like :meth:`compile` but returns ``(payload, cached)``.

        The payload is the serialized-result dict (the cache layout); on a
        warm hit it is returned exactly as stored, so two identical
        requests serialize to byte-identical JSON — the contract the
        ``repro serve`` front-end exposes on the wire.
        """
        outcome = self._compile_entry(
            core, target,
            config=config, sample_config=sample_config, timeout=timeout,
        )
        return outcome.payload, outcome.cached

    def _compile_entry(
        self, core, target, *, config, sample_config, timeout,
    ) -> JobOutcome:
        """One compile entry: its job's ok outcome, or the job's error
        raised.  Either way the outcome is folded and becomes this
        thread's last entry."""
        target = self.resolve_target(target)
        core = self.parse(core, target)
        config = config or self.config
        sample_config = sample_config or self.sample_config
        timeout = self.timeout if timeout is None else timeout
        job = (core, target, job_fingerprint(core, target, config, sample_config))
        self._last.outcome = None
        outcome = cached_outcome(self.cache, 0, *job)
        # Only a miss waits at the gate: a concurrent identical request may
        # be compiling this job, and the engine's own lookup then finds its
        # stored result (a cold compile therefore records two cache misses).
        with (
            self._gate(self._compile_gates, job[2])
            if outcome is None and self.cache is not None else nullcontext()
        ):
            if outcome is None:
                pool = self.worker_pool() if _poolable(target) else None
                [outcome] = run_compile_jobs(
                    [job], config=config, sample_config=sample_config,
                    sampler=functools.partial(
                        self.samples_for, sample_config=sample_config,
                        timeout=timeout,
                    ),
                    held_samples=self._sample_cache_get,
                    cache=self.cache, timeout=timeout, pool=pool,
                    oracle_backend=self.oracle_backend,
                )
            # Folded before the gate opens, so the ledger records a fresh
            # compile before any duplicate's hit on it.
            [record] = self._fold_outcomes(
                "compile", [job], [outcome], config, sample_config
            )
            self._last.outcome, self._last.record = outcome, record
        if outcome.status == "timeout":
            raise JobTimeout(outcome.error)
        if not outcome.ok:
            # An inline job's own exception (the last-entry record must
            # not keep its traceback alive); a pooled job's, rebuilt.
            error, outcome.exception = outcome.exception, None
            raise error or rebuild_error(outcome.error_type, outcome.error)
        return outcome

    @contextmanager
    def _gate(self, gates: dict[str, threading.Lock], key: str):
        """Serialize concurrent work on one fingerprint (sampling, or a
        compile), so a duplicate waits and then finds the first one's
        cache entry instead of redoing it.  The entry leaves ``gates``
        however the work ends, failures included, and only while it is
        still this gate."""
        with self._lock:
            gate = gates.setdefault(key, threading.Lock())
        with gate:
            try:
                yield
            finally:
                with self._lock:
                    if gates.get(key) is gate:
                        del gates[key]

    def improve(
        self,
        core: FPCore | str,
        target: Target | str,
        samples: SampleSet | None = None,
        config: CompileConfig | None = None,
    ) -> ParetoFrontier:
        """Train-scored frontier only: the pipeline with *score* skipped.

        What the Herbie baseline runs over the ``herbie-ir`` pseudo-target
        (test scoring happens later, after lowering onto real targets).
        The transcribe phase is skipped too: its product is only ever
        consumed by the score phase.
        """
        ctx = self.run_pipeline(
            core, target, config=config, samples=samples,
            skip=("transcribe", "score"),
        )
        return ctx.train_frontier

    def score(
        self,
        core: FPCore | str,
        target: Target | str,
        program=None,
        sample_config: SampleConfig | None = None,
    ) -> float:
        """Mean bits of error of ``program`` (default: the transcribed
        input) on ``core``'s test points, via the session's sample cache."""
        target = self.resolve_target(target)
        core = self.parse(core, target)
        samples = self.samples_for(core, sample_config)
        if isinstance(program, str):
            program = parse_expr(program, known_ops=set(target.operators))
        if program is None:
            from .core.transcribe import transcribe

            program = transcribe(core.body, target, core.precision)
        return score_program(
            program, target, samples.test, samples.test_exact, core.precision
        )

    # --- empirical execution --------------------------------------------------------

    def build_cache(self) -> BuildCache:
        """The session's content-addressed C build cache.

        Lives next to the persistent compile cache (``<cache>/builds``)
        when one is configured, so built shared libraries survive the
        process like compile results do; sessions without a persistent
        cache get an ephemeral directory cleaned in :meth:`close`.  (A
        closed session stays usable for synchronous calls — see
        :meth:`close` — so using one after close recreates an ephemeral
        cache; that one is cleaned by its own finalizer at collection.)
        """
        with self._lock:
            if self._build_cache is None:
                if self.cache is not None:
                    self._build_cache = BuildCache(self.cache.root / "builds")
                else:
                    self._build_cache = BuildCache.ephemeral()
            return self._build_cache

    @staticmethod
    def _program_from(result: CompileResult, program: Expr | None) -> Expr:
        """The program one execute/validate call targets: an explicit one,
        else the frontier's most accurate output, else the transcribed
        input (an empty frontier still has an input candidate)."""
        if program is not None:
            return program
        if len(result.frontier):
            return result.frontier.best_error().program
        return result.input_candidate.program

    def executable(
        self,
        core: FPCore | str,
        target: Target | str,
        *,
        program: Expr | str | None = None,
        backend: str = "auto",
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
        timeout: float | None = None,
    ) -> ExecutableProgram:
        """Emit + build/load one program as real executable code (cached).

        ``program`` defaults to the most accurate frontier output of a
        (cache-warm) compilation.  Loaded executables are kept in a
        content-keyed LRU, so repeated execute/validate calls on the same
        program reuse the loaded shared library or compiled function.
        """
        target = self.resolve_target(target)
        core = self.parse(core, target)
        if isinstance(program, str):
            program = parse_expr(program, known_ops=set(target.operators))
        if program is None:
            result = self.compile(
                core, target,
                config=config, sample_config=sample_config, timeout=timeout,
            )
            program = self._program_from(result, None)
        key = (
            core_fingerprint(core),
            target_fingerprint(target),
            expr_to_sexpr(program),
            backend,
        )
        with self._lock:
            cached = self._executables.get(key)
            if cached is not None:
                self._executables.move_to_end(key)
                return cached
        # The deadline bounds emitting + building; the compiler subprocess inside is capped by the
        # remaining budget (it cannot poll cooperatively).
        with deadline(self.timeout if timeout is None else timeout):
            with span("exec.build", backend=backend, target=target.name):
                executable = executable_for(
                    program, core, target,
                    backend=backend, build_cache=self.build_cache(),
                )
        with self._lock:
            self._executables[key] = executable
            while len(self._executables) > 64:
                # Eviction drops the Python wrapper only; the underlying
                # shared library is deliberately NOT dlclosed — callers
                # may still hold the returned ExecutableProgram (unloading
                # under a live function pointer is undefined behavior),
                # and re-dlopening an already-loaded content-addressed
                # path just bumps its refcount rather than re-mapping it.
                self._executables.popitem(last=False)
        return executable

    def execute(
        self,
        core: FPCore | str,
        target: Target | str,
        *,
        program: Expr | str | None = None,
        backend: str = "auto",
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
        timeout: float | None = None,
    ) -> ExecutionRun:
        """Run emitted code over the session's sampled test points.

        The counterpart of :meth:`score` that *executes* instead of
        evaluating through the machine: outputs come from a compiled
        shared library (or the sandboxed Python backend), point by point,
        under the cooperative deadline.
        """
        target = self.resolve_target(target)
        core = self.parse(core, target)
        effective_timeout = self.timeout if timeout is None else timeout
        # Each phase gets the budget for its *compute*: compile and
        # sampling arm their own deadlines (after any wait on a duplicate's
        # gate), while the phases here — the C build (its compiler
        # subprocess is capped by the remaining budget) and the execution
        # loop — are bounded directly.
        executable = self.executable(
            core, target, program=program, backend=backend,
            config=config, sample_config=sample_config, timeout=timeout,
        )
        samples = self.samples_for(core, sample_config, timeout=effective_timeout)
        points = samples.test or samples.train
        with deadline(effective_timeout):
            with span(
                "exec.run", backend=executable.backend, points=len(points)
            ):
                outputs = []
                for point in points:
                    check_deadline()
                    outputs.append(executable.run_point(point))
        with self._lock:
            self.stats.executions += 1
        return ExecutionRun(
            benchmark=core.name or "<anonymous>",
            target=target.name,
            backend=executable.backend,
            language=executable.language,
            fn_name=executable.fn_name,
            outputs=outputs,
            note=executable.note,
        )

    def validate(
        self,
        core: FPCore | str,
        target: Target | str,
        *,
        program: Expr | str | None = None,
        backend: str = "auto",
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
        timeout: float | None = None,
    ) -> ValidationReport:
        """Empirically validate a compilation against oracle and machine.

        Compiles (warm-cache, pool-dispatched when the session has one),
        executes the chosen program — the most accurate frontier output by
        default — over the sampled points, and cross-checks the executed
        outputs against the Rival oracle's exact values and the fpeval
        machine's evaluation (see
        :class:`~repro.exec.validate.ValidationReport`).  Reports are
        cached in the session: repeating a validation is a lookup.
        """
        target = self.resolve_target(target)
        core = self.parse(core, target)
        if isinstance(program, str):
            program = parse_expr(program, known_ops=set(target.operators))
        effective_timeout = self.timeout if timeout is None else timeout
        # Phase-by-phase deadlines, like compile itself: the compile and
        # sampling arm their own; the build and cross-check loop are
        # bounded here.
        resolved = program
        if resolved is None:
            result = self.compile(
                core, target,
                config=config, sample_config=sample_config, timeout=timeout,
            )
            resolved = self._program_from(result, None)
        effective_samples = sample_config or self.sample_config
        key = (
            core_fingerprint(core),
            target_fingerprint(target),
            expr_to_sexpr(resolved),
            backend,
            sample_fingerprint(core, effective_samples),
        )
        with self._lock:
            cached = self._validations.get(key)
            if cached is not None:
                self._validations.move_to_end(key)
                self.stats.validation_hits += 1
                return cached
        validate_start = time.perf_counter()
        executable = self.executable(
            core, target, program=resolved, backend=backend, timeout=timeout,
        )
        samples = self.samples_for(core, effective_samples, timeout=effective_timeout)
        with deadline(effective_timeout):
            with span("exec.validate", backend=executable.backend):
                report = validate_executable(
                    executable, resolved, core, target, samples
                )
        with self._lock:
            self.stats.validations += 1
            self._validations[key] = report
            while len(self._validations) > 256:
                self._validations.popitem(last=False)
        if self.ledger is not None:
            self.ledger.record_job(
                "validate", core, target, config or self.config,
                effective_samples,
                job_fingerprint(
                    core, target, config or self.config, effective_samples
                ),
                cache="none",
                elapsed=time.perf_counter() - validate_start,
                oracle_backend=self.oracle_backend,
                extra={"exec_backend": executable.backend,
                       "agreement": report.ok},
            )
        return report

    # --- batch + async --------------------------------------------------------------

    def worker_pool(self) -> WorkerPool | None:
        """The session's persistent worker pool (None when ``jobs == 1``).

        Created lazily on first use and kept warm across calls — plain
        :meth:`compile` cache misses (so serve ``/compile`` and
        :meth:`submit`), ``compile_many``, the serve ``/batch`` endpoint,
        ``repro batch`` and the experiment runners all share it — until
        :meth:`close` drains it.
        """
        with self._lock:
            if self._pool is None and self.jobs > 1 and not self._closed:
                self._pool = WorkerPool(self.jobs)
            return self._pool

    def pool_info(self) -> dict | None:
        """JSON-able worker-pool state for ``/health`` (None = no pool yet)."""
        with self._lock:
            pool = self._pool
        return pool.info() if pool is not None else None

    def _fold_outcomes(
        self, kind: str, jobs: list[tuple], outcomes: list[JobOutcome],
        config: CompileConfig, sample_config: SampleConfig,
    ) -> list[dict | None]:
        """Fold compile-job outcomes into every surface that counts them.

        The one place that bumps ``stats.compiles``/``cache_hits``/
        ``failures``/``timeouts`` and ``repro_compiles_total``, merges each
        job's shipped engine and oracle counters into ``stats.engine`` and
        ``stats.rival``, observes its phases in ``repro_phase_seconds``
        (the only other writer is :meth:`run_pipeline`), and writes the
        job's provenance-ledger record (``kind`` ``"compile"`` for single
        entries, ``"batch"`` for :meth:`compile_many`).  Returns the record
        written per outcome (None without a ledger).
        """
        dispositions = [_disposition(outcome) for outcome in outcomes]
        with self._lock:
            for outcome, disposition in zip(outcomes, dispositions):
                counter = _COUNTER_OF[disposition]
                setattr(self.stats, counter, getattr(self.stats, counter) + 1)
                if outcome.engine:
                    self.stats.engine.merge(EngineStats(**outcome.engine))
                if outcome.oracle:
                    self.stats.rival.merge(outcome.oracle)
        records: list[dict | None] = []
        for job, outcome, disposition in zip(jobs, outcomes, dispositions):
            METRICS.counter(
                "repro_compiles_total",
                "Compile jobs by outcome, single entries and batches alike.",
                outcome=disposition,
            ).inc()
            _observe_phases(outcome.phases)
            if self.ledger is None:
                records.append(None)
                continue
            if outcome.cached:
                cache = "hit"
            elif not outcome.ok or self.cache is None:
                cache = "none"
            else:
                cache = "store"
            core, target, fingerprint = job
            records.append(self.ledger.record_job(
                kind, core, target, config, sample_config, fingerprint,
                cache=cache,
                status=outcome.status,
                elapsed=outcome.elapsed,
                engine=outcome.engine,
                oracle=outcome.oracle,
                oracle_backend=self.oracle_backend,
                error_type=outcome.error_type or None,
            ))
        return records

    def compile_many(
        self,
        specs: list[JobSpec],
        *,
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
        timeout: float | None = None,
        progress=None,
        trace: bool = False,
    ) -> list[JobOutcome]:
        """Batch compilation through the session's pool, cache and knobs.

        A spec is ``(core, target)``.  Samples do not depend on the
        target, so the engine hands all of a call's cache misses of one
        benchmark the same set — the one the session's sample cache
        holds, or else, for two or more misses, one draw through it (see
        :func:`~repro.service.api.run_compile_jobs`); a lone miss with
        nothing held samples in its job, and a warm rerun draws nothing.

        Returns outcomes in spec order: expected failures captured per
        job, warm cache hits flagged, and every ok outcome carrying both
        its JSON payload and the deserialized ``result``.  Every outcome
        — ok, failed, timeout, cached — is folded into :attr:`stats`,
        ``repro_compiles_total`` and the ledger (``"batch"`` records),
        exactly like a single :meth:`compile`.

        With ``jobs >= 2``, registry-target cache misses are dispatched
        through the session's *persistent* :class:`WorkerPool` (workers
        warm across calls).  Everything else — non-registry targets,
        ``jobs == 1`` and a closed session — runs inline in this thread
        through the same job function, concurrently with other threads'
        compiles.

        ``trace=True`` records a span trace per freshly-compiled job
        (returned on ``JobOutcome.trace``, merged across workers by
        ``repro compile --trace``); engine and oracle counters and phase
        timings ship back on every fresh outcome unconditionally.

        ``progress``, when given, is called with each job's
        :class:`JobOutcome` as it lands (a cache hit when it is looked up,
        a fresh job when it finishes), before the fold.
        """
        config = config or self.config
        sample_config = sample_config or self.sample_config
        timeout = self.timeout if timeout is None else timeout
        jobs = []
        for core, target in specs:
            target = self.resolve_target(target)
            core = self.parse(core, target)
            jobs.append((
                core, target, job_fingerprint(core, target, config, sample_config)
            ))
        with self._lock:
            self.stats.batches += 1
        outcomes = run_compile_jobs(
            jobs,
            config=config,
            sample_config=sample_config,
            sampler=functools.partial(
                self.samples_for, sample_config=sample_config, timeout=timeout
            ),
            held_samples=self._sample_cache_get,
            cache=self.cache,
            timeout=timeout,
            progress=progress,
            pool=self.worker_pool(),
            trace=trace,
            oracle_backend=self.oracle_backend,
        )
        self._fold_outcomes("batch", jobs, outcomes, config, sample_config)
        for (_core, target, _fingerprint), outcome in zip(jobs, outcomes):
            if outcome.ok:
                outcome.result = result_from_dict(outcome.payload, target)
        return outcomes

    def submit(
        self, core: FPCore | str, target: Target | str, **compile_kwargs
    ) -> JobHandle:
        """Start one compilation in the background; returns a handle.

        The handle's :meth:`JobHandle.result` yields the same
        :class:`CompileResult` a synchronous :meth:`compile` would; the
        persistent cache and sample cache are shared, so submitting a
        duplicate of a finished job completes instantly.

        The handle runs :meth:`compile` on a thread, so ``compile_kwargs``
        are its knobs (``config``, ``sample_config``, ``timeout``); with
        ``jobs >= 2`` registry-target jobs compile in parallel on the
        session's worker pool, and non-registry targets run in-process on
        that thread, bounded there by the per-job deadline too.
        """
        target_resolved = self.resolve_target(target)
        core_parsed = self.parse(core, target_resolved)
        with self._lock:
            if self._closed:
                raise RuntimeError("session is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="chassis-session"
                )
            self.stats.submitted += 1
            future = self._executor.submit(
                self.compile, core_parsed, target_resolved, **compile_kwargs
            )
        return JobHandle(
            benchmark=core_parsed.name or "<anonymous>",
            target=target_resolved.name,
            _future=future,
        )

    # --- introspection / lifecycle --------------------------------------------------

    def targets_info(self) -> list[dict]:
        """JSON-able description of every registered target (``/targets``);
        see the module-level :func:`targets_info`."""
        return targets_info()

    def oracle_counters(self) -> OracleCounters:
        """The session's oracle work: its own backend's counters plus
        those pooled jobs shipped home (``stats.rival``)."""
        counters = self.oracle.counters()
        with self._lock:
            counters.merge(self.stats.rival)
        return counters

    def health(self) -> dict:
        """The liveness/statistics payload behind the serve ``/health``
        route and ``repro health``: session counters (including engine
        totals folded back from pooled workers), persistent-cache stats,
        worker-pool state, and oracle activity (in-process work plus the
        counters pooled jobs ship home)."""
        oracle = self.oracle.counters()
        with self._lock:
            stats = self.stats.as_dict()
        # The pooled share from the same snapshot as ``stats["rival"]``.
        oracle.merge(stats["rival"])
        return {
            "ok": True,
            "stats": stats,
            # ``is not None``: an empty cache is falsy (``__len__``).
            "cache": (
                self.cache.stats.as_dict() if self.cache is not None else None
            ),
            "pool": self.pool_info(),
            "provenance": (
                self.ledger.info() if self.ledger is not None else None
            ),
            "oracle": {
                "backend": self.oracle_backend,
                "evals": oracle.evals,
                "escalations": oracle.escalations,
                "batch_calls": oracle.batch_calls,
                "batch_points": oracle.batch_points,
                "fastpath_hits": oracle.fastpath_hits,
                "escalated_points": oracle.escalated_points,
                # Per-rung breakdown.  ``dd_hits`` equals ``fastpath_hits``
                # (dd is the only vector engine); perfbench's ``run_serve``
                # reads it for ``oracle.dd_frac``.
                "rungs": {
                    "dd_hits": oracle.dd_hits,
                    "ladder_points": oracle.escalated_points,
                },
            },
        }

    def close(self) -> None:
        """Drain the submit pool and the worker pool; the session stays
        usable for synchronous in-process calls."""
        with self._lock:
            executor, self._executor = self._executor, None
            pool, self._pool = self._pool, None
            build_cache, self._build_cache = self._build_cache, None
            self._executables.clear()
            self._validations.clear()
            self._closed = True
        if build_cache is not None:
            # Removes the backing directory only for ephemeral caches; a
            # persistent one (next to the compile cache) is kept warm.
            build_cache.cleanup()
        if executor is not None:
            executor.shutdown(wait=True)
        if pool is not None:
            # After the executor has drained (its wrappers are the only
            # way this session dispatches to the pool outside compile_many
            # callers, which the caller must not race with close).
            # WorkerPool.shutdown itself waits on its in-flight-batch
            # counter, so outcomes being collected are never lost.
            pool.shutdown()
        if self.ledger is not None:
            # Closes the append descriptor only; the journal (and the
            # ledger object, which reopens lazily) stays usable.
            self.ledger.close()

    def __enter__(self) -> "ChassisSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
