"""The Herbie baseline: target-agnostic numerical compilation (paper 6.3).

Herbie shares Chassis' architecture (sampling, localization, rewriting,
regimes) but knows nothing about targets: it works over the full
math-library operator set at uniform binary64 precision and ranks candidates
with the naive cost model (arithmetic = 1, function calls = 100).

We reproduce it by running the *same* improvement loop over a pseudo-target
("herbie-ir") built from every real operator with those naive costs — the
paper itself describes Herbie's model as "approximating a wide range of
hardware and software targets".  Herbie outputs are then lowered onto each
real target the way the paper's evaluation does: *transcribe* directly when
every operator exists, otherwise *desugar* unsupported operators through
mathematical definitions, otherwise *discard* the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..accuracy.sampler import SampleSet
from ..accuracy.scoring import pointwise_errors
from ..cost.model import NaiveCostModel, TargetCostModel
from ..ir.expr import Expr
from ..ir.fpcore import FPCore
from ..ir.ops import ARITHMETIC_OPS, VALUE_OPS
from ..ir.types import F64
from ..targets.builtin.common import _BASE_APPROX, direct64
from ..targets.target import SCALAR, Target
from ..core.candidates import Candidate, ParetoFrontier
from ..core.loop import CompileConfig, ImprovementLoop
from ..core.transcribe import Untranscribable, transcribe


@lru_cache(maxsize=1)
def herbie_ir_target() -> Target:
    """The pseudo-target Herbie effectively compiles for.

    Every real operator at binary64 with Herbie's naive costs: arithmetic
    and sign operations cost 1, library calls cost 100.
    """
    operators = []
    for name in sorted(_BASE_APPROX):
        if name not in VALUE_OPS:
            continue
        cost = (
            NaiveCostModel.ARITH_COST
            if name in ARITHMETIC_OPS
            else NaiveCostModel.CALL_COST
        )
        op = direct64(name, latency=cost)
        operators.append(op.with_cost(cost))
    return Target(
        name="herbie-ir",
        operators={op.name: op for op in operators},
        literal_costs={F64: 1.0},
        variable_cost=1.0,
        if_style=SCALAR,
        if_cost=1.0,
        description="Herbie's target-agnostic operator set and naive costs",
        cost_source="naive (arith=1, call=100)",
    )


@dataclass
class HerbieOutput:
    """One Herbie program lowered onto a real target."""

    target_program: Expr
    #: "transcribe" (all ops existed) or "desugar" (fallbacks were needed).
    mode: str
    candidate: Candidate


def run_herbie(
    core: FPCore,
    samples: SampleSet,
    config: CompileConfig | None = None,
    session=None,
) -> ParetoFrontier:
    """Run the target-agnostic loop; returns Herbie's (IR-level) frontier.

    With a :class:`~repro.session.ChassisSession`, this is the phase
    pipeline with the *score* phase skipped (Herbie's frontier is
    train-scored; test scoring happens after lowering onto real targets),
    sharing the session's oracle.
    """
    if core.precision != F64:
        core = FPCore(
            arguments=core.arguments, body=core.body,
            name=core.name, precision=F64, pre=core.pre,
        )
    if session is not None:
        return session.improve(core, herbie_ir_target(), samples=samples, config=config)
    loop = ImprovementLoop(core, herbie_ir_target(), samples, config)
    return loop.run()


def lower_to_target(
    program: Expr,
    core: FPCore,
    target: Target,
    samples: SampleSet,
) -> HerbieOutput | None:
    """Lower one Herbie output onto ``target``, per the paper's protocol.

    Returns None when the program remains unsupported even after
    desugaring (the paper then discards it).
    """
    ir = herbie_ir_target()
    real_program = ir.desugar_expr(program)
    mode = "transcribe"
    try:
        lowered = transcribe(real_program, target, core.precision, allow_fallbacks=False)
    except Untranscribable:
        mode = "desugar"
        try:
            lowered = transcribe(real_program, target, core.precision, allow_fallbacks=True)
        except Untranscribable:
            return None

    model = TargetCostModel(target)
    errors = pointwise_errors(
        lowered, target, samples.test, samples.test_exact, core.precision
    )
    candidate = Candidate(
        program=lowered,
        cost=model.program_cost(lowered),
        error=sum(errors) / max(1, len(errors)),
        origin=f"herbie-{mode}",
    )
    return HerbieOutput(target_program=lowered, mode=mode, candidate=candidate)


def herbie_frontier_on_target(
    core: FPCore,
    target: Target,
    samples: SampleSet,
    config: CompileConfig | None = None,
    ir_frontier: ParetoFrontier | None = None,
    session=None,
) -> tuple[ParetoFrontier, dict[str, int]]:
    """Herbie's outputs lowered to ``target`` and test-scored.

    Returns the frontier plus counts of how each output was handled
    ({"transcribe": n, "desugar": n, "discard": n}).  ``ir_frontier``
    lets callers lowering one benchmark onto many targets reuse a single
    :func:`run_herbie` result (the IR frontier is target-independent).
    """
    if ir_frontier is None:
        ir_frontier = run_herbie(core, samples, config, session=session)
    stats = {"transcribe": 0, "desugar": 0, "discard": 0}
    frontier = ParetoFrontier()
    for candidate in ir_frontier:
        output = lower_to_target(candidate.program, core, target, samples)
        if output is None:
            stats["discard"] += 1
            continue
        stats[output.mode] += 1
        frontier.add(output.candidate)
    return frontier, stats
