"""The escalation ladder as an oracle backend.

This runs :func:`~repro.rival.eval.evaluate` (interval arithmetic on raw
libmp values at escalating explicit precision) behind the
:class:`OracleBackend` protocol.  It is both a standalone backend
(``REPRO_ORACLE_BACKEND=mpmath``) and the hard-point fallback rung of
the numpy fast path: batch calls loop point-at-a-time.  The ladder
reads no process-global mpmath state, so it runs unlocked on any
thread; only the counters sit behind a lock.
"""

from __future__ import annotations

from typing import Sequence

from ...deadline import check_deadline
from ...ir.expr import Expr
from ...ir.types import F64
from ..eval import decide, evaluate
from .base import OK, OracleBackend, PointResult, classify_failure


class MpmathBackend(OracleBackend):
    """Adaptive-precision mpmath evaluation behind the backend protocol."""

    name = "mpmath"

    # --- batched --------------------------------------------------------------

    def eval_batch(
        self, expr: Expr, points: Sequence[dict[str, float]], ty: str = F64
    ) -> list[PointResult]:
        results = self._ladder_batch(expr, points, ty)
        self._record_batch(len(points), fastpath=0, escalated=len(points))
        return results

    def eval_bool_batch(
        self, expr: Expr, points: Sequence[dict[str, float]]
    ) -> list[PointResult]:
        results = self._ladder_bool_batch(expr, points)
        self._record_batch(len(points), fastpath=0, escalated=len(points))
        return results

    # --- the ladder rung (also used by the numpy backend's residue) -----------

    def _ladder_batch(
        self, expr: Expr, points: Sequence[dict[str, float]], ty: str
    ) -> list[PointResult]:
        """Run every point through the full ladder.

        Counts one ``evals`` per point it starts and one ``escalations``
        per value settled above the first rung; a batch cut short by
        DeadlineExceeded (a BaseException, which propagates) still
        counts the points it reached.  Ordinary per-point failures
        become statuses.
        """
        results: list[PointResult] = []
        evals = escalations = 0
        try:
            for point in points:
                check_deadline()
                evals += 1
                try:
                    value, rung = evaluate(expr, point, ty)
                except Exception as exc:
                    results.append(classify_failure(exc))
                    continue
                if rung:
                    escalations += 1
                results.append(PointResult(OK, value))
        finally:
            self._count(evals=evals, escalations=escalations)
        return results

    def _ladder_bool_batch(
        self, expr: Expr, points: Sequence[dict[str, float]]
    ) -> list[PointResult]:
        results: list[PointResult] = []
        for point in points:
            check_deadline()
            try:
                verdict = decide(expr, point)
            except Exception as exc:
                results.append(classify_failure(exc))
            else:
                results.append(PointResult(OK, 1.0 if verdict else 0.0))
        return results
