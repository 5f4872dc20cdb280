"""Common protocol and bookkeeping for pluggable oracle backends.

An :class:`OracleBackend` answers ground-truth queries about real
expressions — the correctly rounded value at a point (the Rival contract,
paper section 3.1) and exact boolean decisions for preconditions — and,
new in this subsystem, answers them for **whole point sets at once**
through :meth:`OracleBackend.eval_batch`.  Batch entry points let a
backend amortize work across points (vectorized interval arithmetic)
that the point-at-a-time API cannot express.

Batch calls never raise per-point failures: each point comes back as a
:class:`PointResult` carrying a status (`"ok"`, `"domain-error"`,
`"precision-exhausted"`, `"invalid"`) so one bad point cannot poison the
rest of the block.  Every backend must be *semantics-preserving*: for
each point, the status and (for ``"ok"``) the bit pattern of the value
must equal what :class:`repro.rival.eval.RivalEvaluator` produces for
that point alone.  Fast paths are acceptance filters, never
approximations.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

from ...ir.expr import Expr
from ...ir.types import F64
from ...obs.metrics import COUNT_BUCKETS, METRICS
from ..eval import PrecisionExhausted
from ..interval import DomainError

#: Per-point batch statuses.
OK = "ok"
DOMAIN_ERROR = "domain-error"
PRECISION_EXHAUSTED = "precision-exhausted"
INVALID = "invalid"

#: Backend names accepted by :func:`repro.rival.backends.make_backend`
#: and the ``REPRO_ORACLE_BACKEND`` environment knob.
BACKEND_NAMES = ("numpy", "mpmath")

#: Name aliases: ``auto`` (and empty) mean the vectorized fast path with
#: the mpmath ladder as its escalation rung.
_ALIASES = {"auto": "numpy", "": "numpy"}


@dataclass(frozen=True)
class PointResult:
    """Outcome of one point inside a batched oracle call.

    ``value`` is meaningful only when ``status == "ok"``; boolean batch
    calls encode True/False as 1.0/0.0 (see :attr:`truthy`).
    """

    status: str
    value: float = math.nan

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def truthy(self) -> bool:
        """The boolean reading of an ``"ok"`` result."""
        return self.status == OK and bool(self.value)


@dataclass
class OracleCounters:
    """Backend-level work counters, mergeable across processes.

    ``evals``/``escalations`` mirror :class:`RivalEvaluator`'s per-rung
    counters.  Backends leave them zero: they share their caller's
    evaluator, whose own counters stay authoritative.  Only a pooled
    job's outcome fills them in, from its private worker evaluator (see
    :func:`repro.service.scheduler.run_job`), so the session can sum both
    without double counting.
    """

    evals: int = 0
    escalations: int = 0
    batch_calls: int = 0
    batch_points: int = 0
    fastpath_hits: int = 0
    escalated_points: int = 0
    #: Points settled by the double-double rung specifically (a subset of
    #: ``fastpath_hits``; ``fastpath_hits - dd_hits`` is the longdouble
    #: sweep's share, ``escalated_points`` the ladder's).
    dd_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other) -> None:
        """Add another counter set (an OracleCounters or a plain dict).

        Unknown dict keys are ignored so payloads from newer/older
        workers stay mergeable.
        """
        if isinstance(other, OracleCounters):
            other = other.as_dict()
        for f in fields(self):
            delta = other.get(f.name)
            if delta:
                setattr(self, f.name, getattr(self, f.name) + int(delta))

    def any(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))


def classify_failure(exc: Exception) -> PointResult:
    """Map a per-point evaluator exception onto a batch status."""
    if isinstance(exc, DomainError):
        return PointResult(DOMAIN_ERROR)
    if isinstance(exc, PrecisionExhausted):
        return PointResult(PRECISION_EXHAUSTED)
    return PointResult(INVALID)


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve an oracle backend name: argument, then environment, then auto.

    Raises ValueError for names outside :data:`BACKEND_NAMES`.
    """
    if name is None:
        name = os.environ.get("REPRO_ORACLE_BACKEND", "")
    name = name.strip().lower()
    resolved = _ALIASES.get(name, name)
    if resolved not in BACKEND_NAMES:
        raise ValueError(
            f"unknown oracle backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)} (or 'auto')"
        )
    return resolved


class OracleBackend:
    """Abstract base: ground-truth evaluation, point-wise and batched."""

    #: Resolved backend name, surfaced through ``/health``.
    name = "abstract"

    # --- point-at-a-time API (the original RivalEvaluator surface) ------------

    def eval(self, expr: Expr, point: dict[str, float], ty: str = F64) -> float:
        raise NotImplementedError

    def eval_bool(self, expr: Expr, point: dict[str, float]) -> bool:
        raise NotImplementedError

    # --- batched API ----------------------------------------------------------

    def eval_batch(
        self, expr: Expr, points: Sequence[dict[str, float]], ty: str = F64
    ) -> list[PointResult]:
        """Correctly rounded values for every point, one backend call."""
        raise NotImplementedError

    def eval_bool_batch(
        self, expr: Expr, points: Sequence[dict[str, float]]
    ) -> list[PointResult]:
        """Boolean decisions (1.0/0.0 values) for every point."""
        raise NotImplementedError

    def sample_batch(
        self,
        pre: Expr | None,
        body: Expr,
        points: Sequence[dict[str, float]],
        ty: str = F64,
    ) -> list[PointResult | None]:
        """One sampler iteration: precondition filter + body evaluation.

        Returns one entry per candidate point: ``None`` where the
        precondition is not certainly true (the point never reaches the
        body), otherwise the body's :class:`PointResult`.  It composes
        :meth:`eval_bool_batch` and :meth:`eval_batch`.
        """
        if pre is not None:
            verdicts = self.eval_bool_batch(pre, points)
            passing = [i for i, v in enumerate(verdicts) if v.truthy]
        else:
            passing = list(range(len(points)))
        outcomes = self.eval_batch(body, [points[i] for i in passing], ty)
        results: list[PointResult | None] = [None] * len(points)
        for i, outcome in zip(passing, outcomes):
            results[i] = outcome
        return results

    def counters(self) -> OracleCounters:
        """A snapshot of this backend's work counters."""
        return OracleCounters()

    # --- shared instrumentation -----------------------------------------------

    def _record_batch(
        self, points: int, fastpath: int, escalated: int, dd: int = 0
    ) -> None:
        """Bump batch metrics for one ``eval_batch``/``eval_bool_batch``."""
        METRICS.counter(
            "repro_oracle_batch_points",
            "Points submitted to batched oracle evaluation.",
            backend=self.name,
        ).inc(points)
        METRICS.counter(
            "repro_oracle_fastpath_hits",
            "Batched points settled by the vectorized fast path "
            "(no mpmath escalation).",
            backend=self.name,
        ).inc(fastpath)
        for rung, hits in (
            ("longdouble", fastpath - dd),
            ("dd", dd),
            ("ladder", escalated),
        ):
            if hits:
                METRICS.counter(
                    "repro_oracle_rung_points",
                    "Batched points settled per cascade rung "
                    "(longdouble sweep, double-double, mpmath ladder).",
                    backend=self.name,
                    rung=rung,
                ).inc(hits)
        METRICS.histogram(
            "repro_oracle_batch_size",
            "Distribution of oracle batch sizes (points per call).",
            buckets=COUNT_BUCKETS,
            backend=self.name,
        ).observe(points)


def iter_ok_values(results: Sequence[PointResult]) -> Iterator[float]:
    """The values of the ``"ok"`` results, in order (helper for tests)."""
    for result in results:
        if result.status == OK:
            yield result.value
