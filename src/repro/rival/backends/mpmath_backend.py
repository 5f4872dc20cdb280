"""The escalation ladder as an oracle backend.

This wraps :class:`RivalEvaluator` (interval arithmetic on raw libmp
values at escalating explicit precision) behind the
:class:`OracleBackend` protocol.  It is both a standalone backend
(``REPRO_ORACLE_BACKEND=mpmath``) and the hard-point fallback rung of
the numpy fast path: batch calls loop point-at-a-time.  The ladder
reads no process-global mpmath state, so it runs unlocked on any
thread; only the counters sit behind a lock.
"""

from __future__ import annotations

import threading
from typing import Sequence

from ...ir.expr import Expr
from ...ir.types import F64
from ...deadline import check_deadline
from ..eval import RivalEvaluator
from .base import OK, OracleBackend, OracleCounters, PointResult, classify_failure


class MpmathBackend(OracleBackend):
    """Adaptive-precision mpmath evaluation behind the backend protocol."""

    name = "mpmath"

    def __init__(self, evaluator: RivalEvaluator | None = None):
        #: The escalation ladder; shared with the owning session so its
        #: ``evals``/``escalations`` counters stay authoritative.
        self.evaluator = evaluator if evaluator is not None else RivalEvaluator()
        self._counters = OracleCounters()
        self._counters_lock = threading.Lock()

    def _bump(self, points: int, escalated: int, fastpath: int = 0) -> None:
        with self._counters_lock:
            self._counters.batch_calls += 1
            self._counters.batch_points += points
            self._counters.escalated_points += escalated
            self._counters.fastpath_hits += fastpath
        self._record_batch(points, fastpath=fastpath, escalated=escalated)

    def counters(self) -> OracleCounters:
        with self._counters_lock:
            snapshot = OracleCounters()
            snapshot.merge(self._counters)
        return snapshot

    # --- point-at-a-time ------------------------------------------------------

    def eval(self, expr: Expr, point: dict[str, float], ty: str = F64) -> float:
        return self.evaluator.eval(expr, point, ty)

    def eval_bool(self, expr: Expr, point: dict[str, float]) -> bool:
        return self.evaluator.eval_bool(expr, point)

    # --- batched --------------------------------------------------------------

    def eval_batch(
        self, expr: Expr, points: Sequence[dict[str, float]], ty: str = F64
    ) -> list[PointResult]:
        results = self._ladder_batch(expr, points, ty)
        self._bump(len(points), escalated=len(points))
        return results

    def eval_bool_batch(
        self, expr: Expr, points: Sequence[dict[str, float]]
    ) -> list[PointResult]:
        results = self._ladder_bool_batch(expr, points)
        self._bump(len(points), escalated=len(points))
        return results

    # --- the ladder rung (also used by the numpy backend's residue) -----------

    def _ladder_batch(
        self, expr: Expr, points: Sequence[dict[str, float]], ty: str
    ) -> list[PointResult]:
        """Run every point through the full ladder.

        DeadlineExceeded (a BaseException) propagates; ordinary per-point
        failures become statuses.
        """
        results: list[PointResult] = []
        for point in points:
            check_deadline()
            try:
                value = self.evaluator.eval(expr, point, ty)
            except Exception as exc:
                results.append(classify_failure(exc))
            else:
                results.append(PointResult(OK, value))
        return results

    def _ladder_bool_batch(
        self, expr: Expr, points: Sequence[dict[str, float]]
    ) -> list[PointResult]:
        results: list[PointResult] = []
        for point in points:
            check_deadline()
            try:
                verdict = self.evaluator.eval_bool(expr, point)
            except Exception as exc:
                results.append(classify_failure(exc))
            else:
                results.append(PointResult(OK, 1.0 if verdict else 0.0))
        return results
