"""The explicit compilation pipeline: parse → sample → transcribe →
improve → regimes → score.

One Chassis compilation is six phases over a shared :class:`PipelineContext`.
Each phase is a small object satisfying the :class:`Phase` protocol (a
``name`` plus ``run(ctx)``), and :class:`CompilePipeline` strings them
together with hook points, so callers can

* **skip** phases (``skip=("score",)`` for a train-only frontier,
  ``skip=("regimes",)`` to disable branch inference),
* **replace** a phase with their own (``replace={"sample": MyPhase()}``),
* **instrument** the run (``before``/``after`` callbacks per phase),

instead of threading ever more keyword arguments through one monolithic
compile function.  The phases deliberately mirror the architecture of
paper figure 1; :func:`compile_core` runs the default pipeline once,
without any session state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, runtime_checkable

from ..accuracy.sampler import SampleConfig, SampleSet, sample_core
from ..accuracy.scoring import score_program
from ..cost.model import TargetCostModel
from ..ir.expr import Expr
from ..ir.fpcore import FPCore, parse_fpcore
from ..obs.trace import span
from ..rival.backends import make_backend
from ..targets.target import Target
from ..deadline import check_deadline
from .candidates import Candidate, ParetoFrontier
from .loop import CompileConfig, ImprovementLoop
from .transcribe import Untranscribable, transcribe, transcribe_with_poly


@dataclass
class CompileResult:
    """Everything produced by one Chassis compilation."""

    core: FPCore
    target: Target
    #: Pareto frontier scored on held-out *test* points.
    frontier: ParetoFrontier
    #: The directly-transcribed input program, test-scored (the baseline
    #: "black square" of paper figure 8).
    input_candidate: Candidate
    samples: SampleSet
    elapsed: float


@dataclass
class PipelineContext:
    """Mutable state shared by the phases of one compilation.

    Fields are populated progressively: ``core`` after *parse*, ``samples``
    after *sample*, ``input_program`` after *transcribe*, ``loop`` and
    ``train_frontier`` after *improve* (and *regimes*), ``test_frontier`` /
    ``input_candidate`` / ``result`` after *score*.  Callers that skip a
    phase must pre-populate what it would have produced.
    """

    target: Target
    config: CompileConfig = field(default_factory=CompileConfig)
    sample_config: SampleConfig | None = None
    #: Batched oracle backend of the sample phase and the improve loop's
    #: local error (default: a fresh ``REPRO_ORACLE_BACKEND`` backend).
    oracle: object = field(default_factory=make_backend)
    #: FPCore source text, consumed by the parse phase when ``core`` is unset.
    source: str | None = None
    core: FPCore | None = None
    samples: SampleSet | None = None
    input_program: Expr | None = None
    loop: ImprovementLoop | None = None
    train_frontier: ParetoFrontier | None = None
    test_frontier: ParetoFrontier | None = None
    input_candidate: Candidate | None = None
    result: CompileResult | None = None
    started: float = field(default_factory=time.monotonic)
    #: Wall-clock seconds per executed phase, filled by
    #: :meth:`CompilePipeline.run` (always on — six clock reads per
    #: compile); the per-phase breakdown behind ``repro compile --json``
    #: timings and the serve ``/compile`` ``timings`` knob.
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def require(self, attr: str, needed_by: str):
        """Fetch a prior phase's product, failing with a phase-aware error."""
        value = getattr(self, attr)
        if value is None:
            raise PipelineError(
                f"phase {needed_by!r} needs ctx.{attr}, which no earlier "
                f"phase produced (skipped without pre-supplying it?)"
            )
        return value


class PipelineError(RuntimeError):
    """A phase ran before its inputs existed (bad skip/replace wiring)."""


@runtime_checkable
class Phase(Protocol):
    """One step of the compilation pipeline."""

    name: str

    def run(self, ctx: PipelineContext) -> None:  # pragma: no cover - protocol
        ...


class ParsePhase:
    """Turn FPCore source text into an :class:`FPCore` (no-op if pre-parsed)."""

    name = "parse"

    def run(self, ctx: PipelineContext) -> None:
        if ctx.core is not None:
            return
        source = ctx.require("source", self.name)
        ctx.core = parse_fpcore(source, known_ops=set(ctx.target.operators))


class SamplePhase:
    """Draw seeded training/test points (no-op when samples are supplied)."""

    name = "sample"

    def run(self, ctx: PipelineContext) -> None:
        if ctx.samples is not None:
            return
        core = ctx.require("core", self.name)
        ctx.samples = sample_core(core, ctx.sample_config, oracle=ctx.oracle)


class TranscribePhase:
    """Lower the input program onto the target (polynomial fallback).

    Runs before sampling-dependent work so an inexpressible benchmark
    fails fast; targets lacking transcendentals fall back to polynomial
    approximation (paper section 2).
    """

    name = "transcribe"

    def run(self, ctx: PipelineContext) -> None:
        core = ctx.require("core", self.name)
        try:
            ctx.input_program = transcribe(core.body, ctx.target, core.precision)
        except Untranscribable:
            ctx.input_program = transcribe_with_poly(
                core.body, ctx.target, core.precision
            )


class ImprovePhase:
    """Run the iterative improvement loop to a train-scored frontier."""

    name = "improve"

    def run(self, ctx: PipelineContext) -> None:
        core = ctx.require("core", self.name)
        samples = ctx.require("samples", self.name)
        ctx.loop = ImprovementLoop(
            core, ctx.target, samples, ctx.config, oracle=ctx.oracle
        )
        # Regime inference is its own phase; the loop must not double-apply.
        ctx.train_frontier = ctx.loop.run(with_regimes=False)


class RegimesPhase:
    """Fuse complementary candidates with branches (paper section 5.4)."""

    name = "regimes"

    def run(self, ctx: PipelineContext) -> None:
        if not ctx.config.enable_regimes:
            return
        loop = ctx.require("loop", self.name)
        frontier = ctx.require("train_frontier", self.name)
        loop.add_regimes(frontier)


class ScorePhase:
    """Re-score the frontier and input on held-out test points; build the result."""

    name = "score"

    def run(self, ctx: PipelineContext) -> None:
        core = ctx.require("core", self.name)
        samples = ctx.require("samples", self.name)
        train_frontier = ctx.require("train_frontier", self.name)
        input_program = ctx.require("input_program", self.name)

        ctx.test_frontier = ParetoFrontier()
        for candidate in train_frontier:
            check_deadline()
            error = score_program(
                candidate.program, ctx.target, samples.test,
                samples.test_exact, core.precision,
            )
            ctx.test_frontier.add(
                Candidate(
                    program=candidate.program,
                    cost=candidate.cost,
                    error=error,
                    point_errors=candidate.point_errors,
                    origin=candidate.origin,
                )
            )

        model = TargetCostModel(ctx.target)
        ctx.input_candidate = Candidate(
            program=input_program,
            cost=model.program_cost(input_program),
            error=score_program(
                input_program, ctx.target, samples.test,
                samples.test_exact, core.precision,
            ),
            origin="input",
        )
        ctx.result = CompileResult(
            core=core,
            target=ctx.target,
            frontier=ctx.test_frontier,
            input_candidate=ctx.input_candidate,
            samples=samples,
            elapsed=time.monotonic() - ctx.started,
        )


#: Canonical phase order; ``default_phases()`` returns fresh instances.
PHASE_NAMES = ("parse", "sample", "transcribe", "improve", "regimes", "score")


def default_phases() -> list[Phase]:
    """Fresh instances of the six standard phases, in canonical order."""
    return [
        ParsePhase(), SamplePhase(), TranscribePhase(),
        ImprovePhase(), RegimesPhase(), ScorePhase(),
    ]


#: Hook signature: ``hook(phase_name, ctx)``.
PhaseHook = Callable[[str, PipelineContext], None]


class CompilePipeline:
    """An ordered list of phases plus skip/replace/instrument hooks."""

    def __init__(
        self,
        phases: Iterable[Phase] | None = None,
        *,
        skip: Iterable[str] = (),
        replace: Mapping[str, Phase] | None = None,
        before: PhaseHook | None = None,
        after: PhaseHook | None = None,
    ):
        base = list(phases) if phases is not None else default_phases()
        known = {phase.name for phase in base}
        skip = set(skip)
        replacements = dict(replace or {})
        for name in (*skip, *replacements):
            if name not in known:
                raise ValueError(
                    f"unknown phase {name!r}; this pipeline has {sorted(known)}"
                )
        self.phases: list[Phase] = [
            replacements.get(phase.name, phase)
            for phase in base
            if phase.name not in skip
        ]
        self.before = before
        self.after = after

    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Run every phase in order over ``ctx``; returns ``ctx``.

        Phase boundaries are cancellation points: when the calling thread
        armed a :func:`~repro.core.deadline.deadline`, an expired budget
        raises :class:`~repro.core.deadline.DeadlineExceeded` here (the
        long-running phases also poll internally).
        """
        for phase in self.phases:
            check_deadline()
            start = time.perf_counter()
            with span(f"phase.{phase.name}"):
                if self.before is not None:
                    self.before(phase.name, ctx)
                phase.run(ctx)
                if self.after is not None:
                    self.after(phase.name, ctx)
            elapsed = time.perf_counter() - start
            ctx.phase_seconds[phase.name] = (
                ctx.phase_seconds.get(phase.name, 0.0) + elapsed
            )
        return ctx


def compile_core(
    core: FPCore | str,
    target: Target,
    config: CompileConfig | None = None,
    sample_config: SampleConfig | None = None,
    samples: SampleSet | None = None,
    pipeline: CompilePipeline | None = None,
    oracle: object | None = None,
) -> CompileResult:
    """Compile one FPCore to a Pareto frontier of programs on ``target``.

    The one-shot entry point (a :class:`~repro.session.ChassisSession`
    keeps the oracle, samples and caches warm across calls instead): builds
    a :class:`PipelineContext` and runs ``pipeline`` (default: all six
    phases) over it.  ``core`` may be source text (the parse phase
    consumes it) or an already-parsed :class:`FPCore`.

    Raises :class:`~repro.core.transcribe.Untranscribable` when the
    benchmark cannot be expressed on the target at all (the paper removes
    such benchmark/target pairs from consideration) and
    :class:`~repro.accuracy.sampler.SamplingError` when too few valid
    inputs exist.
    """
    ctx = PipelineContext(
        target=target,
        config=config or CompileConfig(),
        sample_config=sample_config,
        oracle=oracle if oracle is not None else make_backend(),
        source=core if isinstance(core, str) else None,
        core=core if isinstance(core, FPCore) else None,
        samples=samples,
    )
    (pipeline or CompilePipeline()).run(ctx)
    if ctx.result is None:
        raise PipelineError(
            "pipeline finished without building a CompileResult "
            "(score phase skipped? use CompilePipeline.run for partial runs)"
        )
    return ctx.result
