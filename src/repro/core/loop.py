"""Chassis' iterative improvement loop (paper sections 2 and 5.2).

Each iteration: (1) pick the subexpressions most worth rewriting, blending
the *local error* and *cost opportunity* heuristics; (2) run instruction
selection modulo equivalence (plus series expansion) on each to produce
variants; (3) substitute the variants back, score every new program for
training accuracy and cost, and keep the Pareto frontier.  After the final
iteration, regime inference fuses complementary candidates with branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accuracy.localerror import ExactMemo, local_errors
from ..accuracy.sampler import SampleSet
from ..accuracy.scoring import pointwise_errors
from ..cost.model import TargetCostModel
from ..cost.opportunity import cost_opportunities
from ..egraph.runner import RunnerLimits
from ..fpeval.machine import ColumnMemo
from ..ir.expr import Expr
from ..ir.fpcore import FPCore
from ..obs.trace import span
from ..targets.target import Target
from ..deadline import check_deadline
from .candidates import Candidate, ParetoFrontier
from .isel import DEFAULT_ISEL_LIMITS, instruction_select
from .regimes import infer_regimes
from .series import series_candidates
from .transcribe import transcribe, transcribe_with_poly


@dataclass
class CompileConfig:
    """Resource/quality knobs for one compilation."""

    iterations: int = 2
    #: How many frontier programs to expand per iteration.
    work_candidates: int = 2
    #: How many subexpressions each heuristic nominates per program.
    top_subexprs: int = 2
    #: Variants requested from multi-extraction per subexpression.
    max_variants: int = 25
    #: Training points used by the (expensive) local-error heuristic.
    localize_points: int = 16
    isel_limits: RunnerLimits = DEFAULT_ISEL_LIMITS
    enable_series: bool = True
    series_degree: int = 3
    enable_regimes: bool = True
    max_regimes: int = 3
    #: Bits of local error below which a node isn't worth localizing.
    min_local_error: float = 0.4
    #: Cost-opportunity below which a node isn't worth localizing.
    min_opportunity: float = 0.5
    #: Hard cap on new programs scored per iteration.
    max_new_programs: int = 160


class ImprovementLoop:
    """Stateful driver for iterative improvement of one benchmark."""

    def __init__(
        self,
        core: FPCore,
        target: Target,
        samples: SampleSet,
        config: CompileConfig | None = None,
        oracle=None,
    ):
        self.core = core
        self.target = target
        self.samples = samples
        self.config = config or CompileConfig()
        self.model = TargetCostModel(target)
        self.ty = core.precision
        self.var_types = dict(core.arg_types)
        self._expanded: set[Expr] = set()
        # Point values that live as long as the loop: exact values and
        # node local errors on the localize points (``oracle`` answers
        # them in batches; None builds the environment's backend), and
        # float subtree columns on the training points.
        self._localize_points = samples.train[: self.config.localize_points]
        self._exact = ExactMemo(target, self._localize_points, oracle)
        self._columns = ColumnMemo(target.impl_registry(), samples.train)

    # --- scoring -------------------------------------------------------------------

    def score(self, program: Expr, origin: str) -> Candidate:
        """Score a program on the training set (cost + mean bits of error)."""
        try:
            errors = pointwise_errors(
                program, self.target, self.samples.train,
                self.samples.train_exact, self.ty, memo=self._columns,
            )
        except KeyError:
            errors = [64.0] * len(self.samples.train)
        mean_error = sum(errors) / max(1, len(errors))
        try:
            cost = self.model.program_cost(program)
        except KeyError:
            cost = float("inf")
        return Candidate(
            program=program,
            cost=cost,
            error=mean_error,
            point_errors=tuple(errors),
            origin=origin,
        )

    # --- localization -----------------------------------------------------------------

    def localize(self, program: Expr) -> list[tuple[int, ...]]:
        """Pick the subexpression paths most worth rewriting (paper 5.2)."""
        errs = local_errors(
            program, self.target, self._localize_points, self.ty,
            memo=self._exact,
        )
        opps = cost_opportunities(program, self.target, self.ty, self.var_types)

        by_error = sorted(
            (p for p, e in errs.items() if e >= self.config.min_local_error),
            key=lambda p: -errs[p],
        )[: self.config.top_subexprs]
        by_opportunity = sorted(
            (p for p, o in opps.items() if o >= self.config.min_opportunity),
            key=lambda p: -opps[p],
        )[: self.config.top_subexprs]

        paths: list[tuple[int, ...]] = []
        for path in by_error + by_opportunity:
            if path not in paths:
                paths.append(path)
        # Always consider the whole program when it is small enough: series
        # expansion and regrouping at the root find candidates (like a
        # whole-expression polynomial) that no subexpression rewrite can.
        if () not in paths and program.size() <= 30:
            paths.append(())
        return paths

    # --- candidate generation ----------------------------------------------------------

    def variants_for(self, program: Expr, path: tuple[int, ...]) -> list[Expr]:
        """Instruction-selection and series variants at one subexpression."""
        subexpr = program.at(path)
        variants = instruction_select(
            subexpr,
            self.target,
            ty=self._type_at(program, path),
            var_types=self.var_types,
            limits=self.config.isel_limits,
            max_variants=self.config.max_variants,
        )
        if self.config.enable_series:
            real = self.target.desugar_expr(subexpr)
            for series_expr in series_candidates(real, self.config.series_degree):
                try:
                    lowered = transcribe(series_expr, self.target, self._type_at(program, path))
                except Exception:
                    continue
                variants.append(lowered)
        return variants

    def _type_at(self, program: Expr, path: tuple[int, ...]) -> str:
        from ..cost.opportunity import infer_types

        return infer_types(program, self.target, self.ty).get(path, self.ty)

    # --- the loop ------------------------------------------------------------------------

    def run(self, with_regimes: bool | None = None) -> ParetoFrontier:
        """Run the full loop; returns the training-scored Pareto frontier.

        ``with_regimes`` overrides ``config.enable_regimes`` (the pipeline's
        regimes phase passes ``False`` here and applies
        :meth:`add_regimes` itself, so inference never runs twice).
        """
        initial = transcribe_with_poly(self.core.body, self.target, self.ty)
        frontier = ParetoFrontier([self.score(initial, "initial")])

        for _iteration in range(self.config.iterations):
            check_deadline()
            work = self._select_work(frontier)
            if not work:
                break
            with span("improve.iteration", iteration=_iteration) as iter_span:
                new_candidates: list[Candidate] = []
                seen: set[Expr] = set()
                for candidate in work:
                    self._expanded.add(candidate.program)
                    for path in self.localize(candidate.program):
                        check_deadline()
                        for variant in self.variants_for(candidate.program, path):
                            new_program = candidate.program.replace_at(path, variant)
                            if new_program in seen or new_program == candidate.program:
                                continue
                            seen.add(new_program)
                            new_candidates.append(self.score(new_program, "isel"))
                            if len(new_candidates) >= self.config.max_new_programs:
                                break
                        if len(new_candidates) >= self.config.max_new_programs:
                            break
                if iter_span is not None:
                    iter_span["attrs"].update(
                        expanded=len(work),
                        scored=len(new_candidates),
                    )
            frontier.update(new_candidates)

        if self.config.enable_regimes if with_regimes is None else with_regimes:
            self.add_regimes(frontier)
        return frontier

    def _select_work(self, frontier: ParetoFrontier) -> list[Candidate]:
        """Expand the most accurate, the cheapest, and knee candidates."""
        ranked = frontier.sorted_by_cost()
        picks: list[Candidate] = []
        for candidate in (frontier.best_error(), frontier.best_cost(), *ranked):
            if candidate.program not in self._expanded and candidate not in picks:
                picks.append(candidate)
            if len(picks) >= self.config.work_candidates:
                break
        return picks

    def add_regimes(self, frontier: ParetoFrontier) -> None:
        """Regime inference over ``frontier``, in place (paper section 5.4)."""
        candidates = frontier.sorted_by_cost()
        with span("improve.regimes", candidates=len(candidates)):
            branched = infer_regimes(
                candidates,
                self.samples.train,
                list(self.core.arguments),
                max_regimes=self.config.max_regimes,
            )
        if branched is not None:
            frontier.add(self.score(branched, "regimes"))


def improve(
    core: FPCore,
    target: Target,
    samples: SampleSet,
    config: CompileConfig | None = None,
) -> ParetoFrontier:
    """Convenience wrapper: run the improvement loop once."""
    return ImprovementLoop(core, target, samples, config).run()
