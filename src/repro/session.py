"""The session API: one warm object that owns every per-process resource.

A :class:`ChassisSession` holds, for its whole lifetime,

* one :class:`~repro.rival.eval.RivalEvaluator` (the oracle),
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

Synopsis::

    from repro.api import ChassisSession

    with ChassisSession(cache=".repro-cache", jobs=4) as session:
        result = session.compile("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))",
                                 "c99")
        outcomes = session.compile_many([(core, "c99"), (core, "avx")])
        handle = session.submit(core, "fdlibm")
        ...                      # do other work
        result = handle.result() # block for the compilation

Pipeline hooks ride along: ``session.compile(core, t, skip=("regimes",))``
compiles without branch inference, ``replace={"sample": MyPhase()}`` swaps
a phase, and :meth:`improve` is the score-free variant the Herbie baseline
uses.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from .accuracy.sampler import SampleConfig, SampleSet, SamplingError, sample_core
from .accuracy.scoring import score_program
from .core.candidates import ParetoFrontier
from .core.loop import CompileConfig
from .core.pipeline import (
    CompilePipeline,
    CompileResult,
    Phase,
    PhaseHook,
    PipelineContext,
    PipelineError,
)
from .cost.model import TargetCostModel
from .deadline import (
    DeadlineExceeded,
    check_deadline,
    deadline,
    deadline_suspended,
)
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
from .rival.eval import RivalEvaluator
from .service.api import JobSpec, _poolable, run_compile_jobs
from .service.cache import (
    CompileCache,
    core_fingerprint,
    job_fingerprint,
    sample_fingerprint,
    target_fingerprint,
)
from .service.pool import WorkerPool
from .service.results import core_to_source, result_from_dict, result_to_dict
from .service.scheduler import BatchJob, JobOutcome, JobTimeout, rebuild_error
from .targets import all_targets, get_target
from .targets.target import Target

#: Sample sets a session keeps (least recently used evicted first).
MAX_SAMPLE_ENTRIES = 256


@dataclass
class OracleStats:
    """Contention counters for the session oracle lock (the one RLock
    serializing all mpmath work).  ``wait_seconds`` is time spent queueing
    behind other threads; ``hold_seconds`` is time spent doing oracle
    work — a high wait/hold ratio means concurrent requests are starving
    on the process-global precision state and more worker processes
    (``jobs``) would help."""

    acquisitions: int = 0
    wait_seconds: float = 0.0
    hold_seconds: float = 0.0
    max_wait_seconds: float = 0.0


@dataclass
class SessionStats:
    """Counters over one session's lifetime (surfaced by ``/health``)."""

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
    #: rule searches, stop reasons), accumulated
    #: from every in-process pipeline run *and* — shipped back through
    #: ``JobOutcome.engine`` — from every pooled worker-process compile,
    #: so ``/health`` covers the whole session regardless of where jobs
    #: ran.
    engine: EngineStats = field(default_factory=EngineStats)
    #: Oracle-lock wait vs hold time (see :class:`OracleStats`).
    oracle: OracleStats = field(default_factory=OracleStats)
    #: Oracle-backend work folded back from pooled compiles (worker
    #: evaluators' ``evals``/``escalations`` plus backend batch counters
    #: shipped home on ``JobOutcome.oracle``) — the rival twin of
    #: ``engine``, so ``/health`` oracle totals cover every process.
    rival: OracleCounters = field(default_factory=OracleCounters)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


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
    ``jobs``/``timeout`` parameterize batch calls and the :meth:`submit`
    pool.  Sessions may be shared across threads (the serve front-end and
    :meth:`submit` do): mutable session state sits behind one lock, and
    mpmath-backed work is serialized behind another, because series
    expansion and operator synthesis still set mpmath's process-global
    working precision (``mp.workprec``); concurrent in-process
    compilations would race on it.  (The oracle's ladder passes its
    precision explicitly and shares no mpmath state.)  Sampling now
    batches through the session's oracle backend (``oracle_backend=`` /
    ``REPRO_ORACLE_BACKEND``) and takes that lock only around mpmath
    escalation-ladder runs; an inline pipeline still holds it (the
    improvement loop drives the evaluator directly).  True parallelism is
    process-level: with ``jobs >= 2``, plain registry-target compiles —
    :meth:`compile`, :meth:`submit`, :meth:`compile_many`, serve
    ``/compile`` — run on the session's persistent
    :class:`~repro.service.pool.WorkerPool`, whose workers stay warm
    across calls, and take no oracle lock.  ``timeout`` bounds each
    compilation wherever it runs (cooperative deadline on any thread,
    SIGALRM backstop in workers).
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
        self.evaluator = RivalEvaluator()
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
        # Serializes every mpmath-backed computation (see class docstring).
        # Batched sampling no longer holds it wholesale: backends take it
        # only around their mpmath escalation rung, via the "ladder"
        # section below.
        self._oracle_lock = threading.RLock()
        #: Per-thread re-entrancy depth of :meth:`_oracle_section` — the
        #: lock is an RLock and sections nest (the pipeline runs inside
        #: the compile entry's section); only the outermost acquisition
        #: records wait/hold, so nesting never double-counts.
        self._oracle_local = threading.local()
        #: Per-thread phase timings of the last fresh compile (None after
        #: a warm cache hit — no phases ran); see :meth:`last_phase_timings`.
        self._timings_local = threading.local()
        #: Per-thread marker of the last compile entry's provenance (its
        #: fingerprint + the ledger record written), resolved lazily by
        #: :meth:`last_provenance` — serve handlers attach it only when a
        #: client opts in, so warm hits never pay a ledger scan.
        self._prov_local = threading.local()
        self._samples: OrderedDict[str, SampleSet] = OrderedDict()
        #: Per-fingerprint gates serializing duplicate *sampling* requests
        #: (the global-lock dedup this replaces serialized all sampling).
        self._sample_gates: dict[str, threading.Lock] = {}
        #: Per-fingerprint gates serializing duplicate *pooled compiles*;
        #: see :meth:`_gate`.
        self._compile_gates: dict[str, threading.Lock] = {}
        #: The session's batched oracle backend for in-process work.  It
        #: shares ``evaluator`` (whose counters stay authoritative) and
        #: takes the oracle lock only around mpmath ladder runs.  Pooled
        #: compiles build their own per job (see ``scheduler.run_job``).
        self.oracle = make_backend(
            self.oracle_backend,
            evaluator=self.evaluator,
            lock=lambda: self._oracle_section("ladder"),
        )
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

    @contextmanager
    def _oracle_section(self, label: str):
        """Hold the oracle lock around one section, recording queueing
        time and hold time separately (``stats.oracle``, the
        ``repro_oracle_*_seconds`` histograms, and ``oracle.wait`` /
        ``oracle.hold`` spans when a tracer is armed).

        Wait-vs-hold must be split because the cooperative deadline
        deliberately excludes queueing (the PR-3 contract): a request that
        spent 30s waiting and 2s computing looks identical to a 2s compile
        from the deadline's view, and this is where that difference shows.
        """
        depth = getattr(self._oracle_local, "depth", 0)
        if depth:
            # Nested section on the same thread: the RLock is already
            # ours, so there is nothing to wait for and the outer section
            # owns the accounting.
            self._oracle_local.depth = depth + 1
            try:
                with self._oracle_lock:
                    yield
            finally:
                self._oracle_local.depth = depth
            return
        wait_start = time.perf_counter()
        # Ladder sections are taken *inside* armed deadline regions (a
        # backend escalating mid-sample); queueing behind another thread
        # must stay budget-neutral, per the wait-vs-hold contract.
        with span("oracle.wait", section=label), deadline_suspended():
            self._oracle_lock.acquire()
        waited = time.perf_counter() - wait_start
        self._oracle_local.depth = 1
        hold_start = time.perf_counter()
        try:
            with span("oracle.hold", section=label):
                yield
        finally:
            held = time.perf_counter() - hold_start
            self._oracle_local.depth = 0
            self._oracle_lock.release()
            METRICS.histogram(
                "repro_oracle_wait_seconds",
                "Seconds spent queueing for the session oracle lock.",
                section=label,
            ).observe(waited)
            METRICS.histogram(
                "repro_oracle_hold_seconds",
                "Seconds the session oracle lock was held, by section.",
                section=label,
            ).observe(held)
            with self._lock:
                oracle = self.stats.oracle
                oracle.acquisitions += 1
                oracle.wait_seconds += waited
                oracle.hold_seconds += held
                if waited > oracle.max_wait_seconds:
                    oracle.max_wait_seconds = waited

    def is_cached(
        self,
        core: FPCore | str,
        target: Target | str,
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
    ) -> bool:
        """True when this job's full result is already in the persistent
        cache (stat-free probe; batch front-ends use it to skip
        pre-sampling benchmarks that will never compile)."""
        if self.cache is None:
            return False
        target = self.resolve_target(target)
        core = self.parse(core, target)
        return self.cache.contains(job_fingerprint(
            core, target, config or self.config, sample_config or self.sample_config
        ))

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
        # Sampling no longer holds the session oracle lock wholesale — the
        # backend takes it only around mpmath ladder runs — so duplicate
        # requests are deduplicated by a per-fingerprint gate instead: a
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
                        core, sample_config, self.evaluator,
                        oracle=self.oracle,
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
        full context (for partial runs — e.g. ``skip=("score",)`` leaves
        ``ctx.train_frontier`` as the product).

        ``timeout`` (default: the session's) arms a thread-safe
        cooperative deadline around each oracle-locked section — sampling,
        then the pipeline itself — so inline compiles are bounded on *any*
        thread, raising :class:`~repro.deadline.DeadlineExceeded`.  The
        deadline measures compute, not time spent queueing for the oracle
        lock, so a burst of concurrent requests does not time each other
        out.
        """
        effective_timeout = self.timeout if timeout is None else timeout
        target = self.resolve_target(target)
        sample_config = sample_config or self.sample_config
        core = self.parse(core, target)
        sample_elapsed = 0.0
        with span(
            "compile",
            benchmark=core.name or "<anonymous>", target=target.name,
        ):
            if samples is None and "sample" not in set(skip) and (
                replace is None or "sample" not in replace
            ):
                sample_start = time.perf_counter()
                samples = self.samples_for(
                    core, sample_config, timeout=effective_timeout
                )
                sample_elapsed = time.perf_counter() - sample_start
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
            # Engine counters accumulate into a local sink and fold into the
            # session totals even when the run times out or fails partway.
            engine_local = EngineStats()
            with self._oracle_section("pipeline"):
                try:
                    with deadline(effective_timeout), engine_stats_sink(engine_local):
                        return pipeline.run(ctx)
                finally:
                    if engine_local.any():
                        with self._lock:
                            self.stats.engine.merge(engine_local)
                    # Session pre-sampling makes the pipeline's own sample
                    # phase a no-op; attribute the real draw to it so the
                    # per-phase breakdown sums to the compile's wall clock.
                    timings = dict(ctx.phase_seconds)
                    if sample_elapsed:
                        timings["sample"] = (
                            timings.get("sample", 0.0) + sample_elapsed
                        )
                    self._timings_local.phases = timings
                    # This run's exact engine deltas, for the provenance
                    # record the compile entry writes (the session totals
                    # above are cumulative — useless for one job).
                    self._timings_local.engine = (
                        engine_local.as_dict() if engine_local.any() else None
                    )

    def last_phase_timings(self) -> dict[str, float] | None:
        """Per-phase wall-clock seconds of this thread's most recent fresh
        compile — parse/sample/transcribe/improve/regimes/score — or
        ``None`` when the last compile entry was a warm cache hit (no
        phases ran).  Thread-local, so concurrent serve handlers each see
        their own compile's breakdown."""
        return getattr(self._timings_local, "phases", None)

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
        entry = getattr(self._prov_local, "entry", None)
        if entry is None or self.ledger is None:
            return None
        record = entry["record"]
        origin = (
            record if record.get("cache") != "hit"
            else self.ledger.resolve(entry["fingerprint"])
        )
        return {
            "fingerprint": entry["fingerprint"],
            "cached": record.get("cache") == "hit",
            "record": record,
            "origin": origin,
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
        samples: SampleSet | None = None,
        skip: tuple[str, ...] | list[str] = (),
        replace: dict[str, Phase] | None = None,
        before: PhaseHook | None = None,
        after: PhaseHook | None = None,
        use_cache: bool = True,
        timeout: float | None = None,
    ) -> CompileResult:
        """Compile one benchmark for one target through the warm session.

        Checks the persistent cache first, then runs the phase pipeline
        and stores the fresh result.  Customized calls never touch the
        cache: a ``skip``/``replace`` pipeline's product is not a full
        compilation, caller-supplied ``samples`` are not provably the
        seeded ones the fingerprint describes (unlike ``compile_many``,
        which documents that contract, this method stays safe by
        bypassing instead), and ``before``/``after`` hooks must actually
        observe phases running (a cache hit runs none) and may mutate the
        context.

        ``timeout`` overrides the session default for this call; running
        past it raises :class:`~repro.deadline.DeadlineExceeded` (works
        from any thread — serve handlers, ``submit`` workers).

        With ``jobs >= 2``, a plain registry-target call that misses the
        cache compiles on the session's warm worker pool; concurrent
        identical calls compile once.
        """
        payload, cached, _fingerprint, result = self._compile_entry(
            core, target,
            config=config, sample_config=sample_config, samples=samples,
            skip=tuple(skip), replace=replace, before=before, after=after,
            use_cache=use_cache, timeout=timeout,
        )
        if result is None:
            result = result_from_dict(payload, self.resolve_target(target))
        return result

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
        payload, cached, _fingerprint, _result = self._compile_entry(
            core, target, config=config, sample_config=sample_config,
            samples=None, skip=(), replace=None, before=None, after=None,
            use_cache=True, timeout=timeout,
        )
        return payload, cached

    def _compile_entry(
        self, core, target, *, config, sample_config, samples,
        skip, replace, before, after, use_cache, timeout=None,
    ) -> tuple[dict, bool, str, CompileResult | None]:
        target = self.resolve_target(target)
        core = self.parse(core, target)
        config = config or self.config
        sample_config = sample_config or self.sample_config
        customized = (
            bool(skip) or bool(replace) or samples is not None
            or before is not None or after is not None
        )
        fingerprint = job_fingerprint(core, target, config, sample_config)
        cacheable = self.cache is not None and use_cache and not customized
        # Plain compiles run on the warm worker pool when the session has
        # one (jobs >= 2, not closed); customized calls and non-registry
        # targets cannot cross the process boundary and run inline.
        pool = (
            self.worker_pool()
            if not customized and _poolable(target) else None
        )
        # A cache hit runs no phases; stale timings from an earlier compile
        # on this thread must not be attributed to it.  Same for the
        # provenance marker: it must describe *this* entry or nothing.
        self._timings_local.phases = None
        self._timings_local.engine = None
        self._prov_local.entry = None

        def outcome_counter(outcome: str):
            return METRICS.counter(
                "repro_compiles_total",
                "Session compile entries by outcome.",
                outcome=outcome,
            )

        def record(cache_state: str, **kwargs):
            if self.ledger is None:
                return
            written = self.ledger.record_job(
                "compile", core, target, config, sample_config, fingerprint,
                cache=cache_state, oracle_backend=self.oracle_backend,
                **kwargs,
            )
            self._prov_local.entry = {
                "fingerprint": fingerprint, "record": written,
            }

        def cache_hit() -> dict | None:
            payload = self.cache.get(fingerprint) if cacheable else None
            if payload is not None:
                with self._lock:
                    self.stats.cache_hits += 1
                outcome_counter("cache_hit").inc()
                record("hit")
            return payload

        payload = cache_hit()
        if payload is not None:
            return payload, True, fingerprint, None

        # Inline compiles hold the oracle lock; pooled ones run in other
        # processes and only gate concurrent duplicates of this job.
        if pool is None:
            section = self._oracle_section("compile")
        elif cacheable:
            section = self._gate(self._compile_gates, fingerprint)
        else:
            section = nullcontext()
        with section:
            # A concurrent identical request may have compiled and stored
            # this job while we waited; a second lookup beats redoing the
            # whole pipeline.  (A cold compile therefore records two cache
            # misses.)
            payload = cache_hit()
            if payload is not None:
                return payload, True, fingerprint, None
            result = None
            try:
                if pool is not None:
                    payload, elapsed = self._run_on_pool(
                        pool, core, target, config, sample_config, timeout
                    )
                else:
                    ctx = self.run_pipeline(
                        core, target,
                        config=config, sample_config=sample_config,
                        samples=samples, skip=skip, replace=replace,
                        before=before, after=after, timeout=timeout,
                    )
            except DeadlineExceeded as error:
                with self._lock:
                    self.stats.timeouts += 1
                outcome_counter("timeout").inc()
                record(
                    "none", status="timeout",
                    error_type=type(error).__name__,
                    engine=self._timings_local.engine,
                )
                raise
            except Exception as error:
                with self._lock:
                    self.stats.failures += 1
                outcome_counter("failure").inc()
                record(
                    "none", status="failed",
                    error_type=type(error).__name__,
                    engine=self._timings_local.engine,
                )
                raise
            if pool is None:
                if ctx.result is None:
                    raise PipelineError(
                        "customized pipeline produced no CompileResult; use "
                        "run_pipeline() for partial runs"
                    )
                result = ctx.result
                payload, elapsed = result_to_dict(result), result.elapsed
            with self._lock:
                self.stats.compiles += 1
            outcome_counter("ok").inc()
            if cacheable:
                # Stored before the lock or gate is released, so a waiting
                # duplicate's re-check above finds it.
                self.cache.put(fingerprint, payload)
            record(
                # "bypass": a fresh result deliberately kept out of a
                # configured cache (customized pipeline or use_cache=False).
                "store" if cacheable
                else ("bypass" if self.cache is not None else "none"),
                elapsed=elapsed,
                engine=self._timings_local.engine,
            )
        return payload, False, fingerprint, result

    @contextmanager
    def _gate(self, gates: dict[str, threading.Lock], key: str):
        """Serialize concurrent work on one fingerprint (sampling, or a
        pooled compile), so a duplicate waits and then finds the first
        one's cache entry instead of redoing it (inline compiles get this
        from the oracle lock).  The entry leaves ``gates`` however the
        work ends, failures included, and only while it is still this
        gate."""
        with self._lock:
            gate = gates.setdefault(key, threading.Lock())
        with gate:
            try:
                yield
            finally:
                with self._lock:
                    if gates.get(key) is gate:
                        del gates[key]

    def _run_on_pool(
        self, pool: WorkerPool, core: FPCore, target: Target,
        config: CompileConfig, sample_config: SampleConfig,
        timeout: float | None,
    ) -> tuple[dict, float]:
        """Compile one job on the warm worker pool; returns its payload
        and the worker's wall time, or raises what an inline compile would.

        The worker's phase timings and engine counters land in this
        thread's locals (for :meth:`last_phase_timings` and the ledger),
        and its engine and oracle counters fold into :attr:`stats`.
        """
        effective_timeout = self.timeout if timeout is None else timeout
        job = BatchJob(
            0, core_to_source(core), target.name,
            config=config, sample_config=sample_config,
            oracle_backend=self.oracle_backend,
        )
        [outcome] = pool.run_batch([job], timeout=effective_timeout)
        self._timings_local.phases = outcome["phases"]
        self._timings_local.engine = outcome["engine"]
        with self._lock:
            self._fold_counters(outcome["engine"], outcome["oracle"])
        if outcome["status"] == "timeout":
            raise JobTimeout(outcome["error"])
        if outcome["status"] != "ok":
            raise rebuild_error(outcome["error_type"], outcome["error"])
        return outcome["payload"], outcome["elapsed"]

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
        # Emitting + building takes no oracle lock, so the deadline can
        # arm directly; the compiler subprocess inside is capped by the
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
        # sampling arm their own deadlines after taking the oracle lock
        # (queueing behind a concurrent compile must not count — the PR-3
        # contract), while the lock-free phases here — the C build (its
        # compiler subprocess is capped by the remaining budget) and the
        # execution loop — are bounded directly.
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
        # Phase-by-phase deadlines, like compile itself: oracle-locked
        # phases (the compile, sampling) arm theirs after taking the lock
        # so queueing behind concurrent requests does not count; the
        # lock-free phases (build, cross-check loop) are bounded here.
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

    def shared_samples_for(
        self,
        cores: list[FPCore],
        targets: list[Target | str],
        *,
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
        timeout: float | None = None,
    ) -> list[SampleSet | None]:
        """One shared sample set per benchmark for a ``cores x targets``
        batch (aligned with ``cores``; the common third spec element).

        Sampling is target-independent and seeded, so a multi-target batch
        can sample each benchmark once here — through the session cache —
        instead of every worker repeating it per target.  Entries stay
        ``None`` (sample in the worker) for single-target batches (no
        redundancy to remove, and workers sample in parallel), for
        benchmarks whose every job is already in the persistent cache
        (warm reruns must stay oracle-free), and for benchmarks that fail
        to sample (their jobs still report per-job SamplingErrors,
        preserving the removal protocol).  Both ``repro batch`` and the
        serve ``/batch`` endpoint build their specs from this.
        """
        shared: list[SampleSet | None] = [None] * len(cores)
        if len(targets) <= 1:
            return shared
        for index, core in enumerate(cores):
            if all(
                self.is_cached(core, target, config, sample_config)
                for target in targets
            ):
                continue
            try:
                shared[index] = self.samples_for(
                    core, sample_config, timeout=timeout
                )
            except (SamplingError, DeadlineExceeded):
                pass
        return shared

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

    def _fold_outcomes(self, outcomes: list[JobOutcome]) -> None:
        """Fold batch outcomes into the session counters (``/health``).

        ``compile`` bumps these inline; batch paths historically did not,
        so ``/health`` under-reported failures and never saw timeouts.
        Engine counters shipped back on ``JobOutcome.engine`` — from
        worker processes and inline batch jobs alike — merge into
        ``stats.engine``, closing the gap where pooled compiles did real
        e-graph work that ``/health`` never saw.  Oracle counters ride the
        same road: each job's backend/evaluator work ships back on
        ``JobOutcome.oracle`` and merges into ``stats.rival``.
        """
        with self._lock:
            for outcome in outcomes:
                if outcome.cached:
                    self.stats.cache_hits += 1
                elif outcome.ok:
                    self.stats.compiles += 1
                elif outcome.status == "timeout":
                    self.stats.timeouts += 1
                else:
                    self.stats.failures += 1
                self._fold_counters(outcome.engine, outcome.oracle)

    def _fold_counters(self, engine: dict | None, oracle: dict | None) -> None:
        """Merge one job's shipped engine and oracle counters into
        :attr:`stats` (the caller holds ``self._lock``)."""
        if engine:
            known = {fld.name for fld in dataclasses.fields(EngineStats)}
            self.stats.engine.merge(EngineStats(**{
                key: value for key, value in engine.items() if key in known
            }))
        if oracle:
            self.stats.rival.merge(oracle)

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

        Same contract as the engine it drives
        (:func:`repro.service.api.run_compile_jobs`): outcomes in spec
        order, expected failures captured per job, warm cache hits flagged.
        Every outcome — ok, failed, timeout, cached — is folded into
        :attr:`stats`.

        With ``jobs >= 2``, registry-target cache misses are dispatched
        through the session's *persistent* :class:`WorkerPool` (workers
        warm across calls).  Everything else — non-registry targets,
        ``jobs == 1`` and a closed session — runs inline in this thread
        inside one ``"compile"`` oracle section, so it is serialized
        against concurrent compiles and counted in ``stats.oracle``, while
        pool-dispatched work (separate processes) runs unlocked.

        ``trace=True`` records a span trace per freshly-compiled job
        (returned on ``JobOutcome.trace``, merged across workers by
        ``repro compile --trace``); engine counters ship back and fold
        into ``stats.engine`` unconditionally.
        """
        with self._lock:
            self.stats.batches += 1
        outcomes = run_compile_jobs(
            specs,
            config=config or self.config,
            sample_config=sample_config or self.sample_config,
            cache=self.cache,
            timeout=self.timeout if timeout is None else timeout,
            progress=progress,
            inline_lock=self._oracle_section("compile"),
            pool=self.worker_pool(),
            trace=trace,
            ledger=self.ledger,
            oracle_backend=self.oracle_backend,
        )
        self._fold_outcomes(outcomes)
        return outcomes

    def submit(
        self, core: FPCore | str, target: Target | str, **compile_kwargs
    ) -> JobHandle:
        """Start one compilation in the background; returns a handle.

        The handle's :meth:`JobHandle.result` yields the same
        :class:`CompileResult` a synchronous :meth:`compile` would; the
        persistent cache and sample cache are shared, so submitting a
        duplicate of a finished job completes instantly.

        The handle runs :meth:`compile` on a thread, so with ``jobs >= 2``
        plain registry-target jobs compile in parallel on the session's
        worker pool; customized calls (``skip``/``replace``/hooks/
        ``samples``) and non-registry targets run in-process, serialized
        by the oracle lock, and the per-job deadline bounds them there
        too.
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

    def health(self) -> dict:
        """The liveness/statistics payload behind the serve ``/health``
        route and ``repro health``: session counters (including engine
        totals folded back from pooled workers), persistent-cache stats,
        worker-pool state, and oracle activity (in-process work plus the
        counters pooled jobs ship home, and lock wait-vs-hold)."""
        oracle = self.oracle.counters()
        with self._lock:
            stats = self.stats.as_dict()
            oracle.merge(self.stats.rival)
        # The session backend shares ``self.evaluator`` (its own ``evals``
        # stay zero); worker-side work arrives pre-folded in
        # ``stats.rival`` — summing them never double-counts.
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
                "evals": self.evaluator.evals + oracle.evals,
                "escalations": self.evaluator.escalations + oracle.escalations,
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
