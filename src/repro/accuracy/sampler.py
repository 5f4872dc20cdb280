"""Input sampling for accuracy measurement (paper section 2: "samples
training and test inputs").

Following Herbie, points are drawn uniformly over the *bit patterns* of the
input format (so every binade is equally likely), then filtered to points
where the expression is actually defined: the precondition holds and the
correctly-rounded result exists and is finite.  Sampling is deterministic
given a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..deadline import check_deadline
from ..formats import FloatFormat, get_format
from ..ir.expr import App, Num, Var
from ..ir.fpcore import FPCore
from ..rival.eval import RivalEvaluator

Point = dict[str, float]


@dataclass
class SampleConfig:
    """Sampling parameters."""

    n_train: int = 128
    n_test: int = 128
    seed: int = 20250401
    max_batches: int = 64
    #: Require at least this many valid points or raise.
    min_points: int = 8


@dataclass
class SampleSet:
    """Sampled training and test points plus their exact values."""

    train: list[Point]
    test: list[Point]
    #: Fraction of raw draws that were valid (diagnostic).
    acceptance: float = 1.0
    train_exact: list[float] = field(default_factory=list)
    test_exact: list[float] = field(default_factory=list)


class SamplingError(RuntimeError):
    """Too few valid points could be found for a benchmark."""


def _random_float(rng: random.Random, ty) -> float:
    fmt = get_format(ty)
    return fmt.from_ordinal(rng.randint(-fmt.max_ordinal, fmt.max_ordinal))


@dataclass
class _VarRange:
    """Per-variable sampling region derived from the precondition.

    ``lo``/``hi`` bound the variable itself; ``mag_lo`` bounds |var| away
    from zero (from ``(< c (fabs x))``-shaped clauses).
    """

    lo: float = -math.inf
    hi: float = math.inf
    mag_lo: float = 0.0
    mag_hi: float = math.inf


def _collect_ranges(pre, arguments: tuple[str, ...]) -> dict[str, _VarRange]:
    """Extract conservative per-variable bounds from a conjunction of
    comparisons (bounds are a sampling heuristic only — the full
    precondition is still checked on every candidate point)."""
    ranges = {name: _VarRange() for name in arguments}
    if pre is not None:
        _visit_bounds(pre, ranges)
    return ranges


def _visit_bounds(node, ranges: dict[str, _VarRange]) -> None:
    """Tighten ``ranges`` by the comparisons of the conjunction ``node``."""
    if not isinstance(node, App):
        return
    if node.op == "and":
        for arg in node.args:
            _visit_bounds(arg, ranges)
        return
    if node.op not in ("<", "<=", ">", ">="):
        return
    left, right = node.args
    if node.op in (">", ">="):
        left, right = right, left  # normalize to "left < right"
    # left < right with combinations of Var / Num / (fabs Var)
    if isinstance(left, Num) and isinstance(right, Var):
        r = ranges.get(right.name)
        if r is not None:
            r.lo = max(r.lo, float(left.value))
    elif isinstance(left, Var) and isinstance(right, Num):
        r = ranges.get(left.name)
        if r is not None:
            r.hi = min(r.hi, float(right.value))
    elif (
        isinstance(left, Num)
        and isinstance(right, App)
        and right.op == "fabs"
        and isinstance(right.args[0], Var)
    ):
        r = ranges.get(right.args[0].name)
        if r is not None:
            r.mag_lo = max(r.mag_lo, float(left.value))
    elif (
        isinstance(left, App)
        and left.op == "fabs"
        and isinstance(left.args[0], Var)
        and isinstance(right, Num)
    ):
        r = ranges.get(left.args[0].name)
        if r is not None:
            r.mag_hi = min(r.mag_hi, float(right.value))


def _ordinal_bounds(
    value_lo: float, value_hi: float, fmt: FloatFormat
) -> tuple[int, int]:
    lo = -fmt.max_ordinal if math.isinf(value_lo) else fmt.to_ordinal(value_lo)
    hi = fmt.max_ordinal if math.isinf(value_hi) else fmt.to_ordinal(value_hi)
    return min(lo, hi), max(lo, hi)


def _random_in_range(
    rng: random.Random, rang: _VarRange, fmt: FloatFormat
) -> float:
    """Ordinal-uniform draw inside a variable's derived region."""
    if rang.mag_lo > 0.0 or rang.mag_hi < math.inf:
        # Sample a magnitude, then a sign compatible with [lo, hi].
        mag_hi = min(rang.mag_hi, max(abs(rang.lo), abs(rang.hi)))
        lo_o, hi_o = _ordinal_bounds(max(rang.mag_lo, 0.0), mag_hi, fmt)
        lo_o = max(lo_o, 0)
        magnitude = fmt.from_ordinal(rng.randint(lo_o, max(lo_o, hi_o)))
        signs = []
        if rang.hi > 0:
            signs.append(1.0)
        if rang.lo < 0:
            signs.append(-1.0)
        return magnitude * rng.choice(signs or [1.0])
    lo_o, hi_o = _ordinal_bounds(rang.lo, rang.hi, fmt)
    return fmt.from_ordinal(rng.randint(lo_o, hi_o))


def sample_core(
    core: FPCore,
    config: SampleConfig | None = None,
    evaluator: RivalEvaluator | None = None,
    oracle: "OracleBackend | None" = None,
) -> SampleSet:
    """Sample valid train/test points for an FPCore, with exact values.

    A point is valid when the precondition holds and the correctly-rounded
    value of the body exists and is finite.  The exact values are kept so
    scoring never re-runs the oracle on the same points.

    Candidates are drawn in blocks and oracled per block through an
    :class:`~repro.rival.backends.OracleBackend` (``oracle``, defaulting
    to one built from ``evaluator`` and the ``REPRO_ORACLE_BACKEND``
    knob), so the vectorized backend sees whole point sets at once.
    Every backend is an acceptance filter over the same ladder semantics,
    so the sampled points, exact values, and acceptance ratio are
    bit-identical to the historical draw-at-a-time loop for any backend
    choice.
    """
    from ..rival.backends import make_backend

    config = config or SampleConfig()
    if oracle is None:
        oracle = make_backend(evaluator=evaluator)
    rng = random.Random(config.seed)
    wanted = config.n_train + config.n_test
    ranges = _collect_ranges(core.pre, core.arguments)
    fmt = get_format(core.precision)

    points: list[Point] = []
    exacts: list[float] = []
    attempts = 0
    batch_size = max(wanted, 32)
    for _batch in range(config.max_batches):
        check_deadline()  # the backends poll too, per batch or per point
        candidates = [
            {
                name: _random_in_range(rng, ranges[name], fmt)
                for name in core.arguments
            }
            for _ in range(batch_size)
        ]
        # One backend call per sampler iteration: precondition filter
        # plus body evaluation.
        outcomes = oracle.sample_batch(
            core.pre, core.body, candidates, core.precision
        )
        exact_at = {
            index: outcome.value
            for index, outcome in enumerate(outcomes)
            if outcome is not None
            and outcome.ok
            and math.isfinite(outcome.value)
        }
        # Walk the block in draw order so ``attempts`` counts exactly the
        # draws the historical loop would have made: it stopped on the
        # wanted-th valid point, mid-block.
        for index in range(batch_size):
            attempts += 1
            exact = exact_at.get(index)
            if exact is None:
                continue
            points.append(candidates[index])
            exacts.append(exact)
            if len(points) >= wanted:
                break
        if len(points) >= wanted:
            break

    if len(points) < max(config.min_points, 2):
        raise SamplingError(
            f"benchmark {core.name or '<anonymous>'}: "
            f"only {len(points)} valid points in {attempts} draws"
        )

    n_train = min(config.n_train, len(points) * config.n_train // wanted or 1)
    return SampleSet(
        train=points[:n_train],
        test=points[n_train:],
        acceptance=len(points) / max(1, attempts),
        train_exact=exacts[:n_train],
        test_exact=exacts[n_train:],
    )
