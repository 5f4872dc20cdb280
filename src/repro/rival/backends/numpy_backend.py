"""The vectorized oracle backend: one dd program, then the ladder.

Every batch runs one compiled double-double interval program
(:class:`~.dd.DoubleDoubleRung`) over the whole point set.  It settles a
point only when its outward-rounded enclosure already rounds uniquely
in the target format (or its condition verdict is certain), so each
settled result is bit-identical to what the mpmath ladder returns; the
residue climbs the unchanged ladder.  The rung runs on float64 arrays
only, so what it settles does not depend on the platform's
``long double``.

A batch whose expression has no dd program goes to the ladder whole: an
operator without a dd kernel, ``if``, an ``INFINITY``/``NAN`` constant,
or a target format wider than 24 bits (binary64 aside) or without a
vectorized storage cast.
"""

from __future__ import annotations

from ...deadline import check_deadline
from ...ir.types import F64
from .base import OracleBackend, OracleCounters, PointResult
from .dd import DoubleDoubleRung
from .mpmath_backend import MpmathBackend


class NumpyBackend(OracleBackend):
    """The dd rung in front of the mpmath ladder."""

    name = "numpy"

    def __init__(self, fallback: MpmathBackend):
        super().__init__()
        self.fallback = fallback
        self._dd = DoubleDoubleRung()

    # --- counters -------------------------------------------------------------

    def counters(self) -> OracleCounters:
        # Includes the fallback's own counters: whole batches without a dd
        # program delegate to ``fallback.eval_batch``, which records them
        # itself, and ``_ladder_batch`` counts the ladder's ``evals`` and
        # ``escalations`` for the residue too (the residue's batch counts
        # are bumped here, not there, so nothing is counted twice).
        snapshot = super().counters()
        snapshot.merge(self.fallback.counters())
        return snapshot

    # --- batched --------------------------------------------------------------

    def eval_batch(self, expr, points, ty=F64) -> list[PointResult]:
        check_deadline()
        settled = self._dd.evaluate(expr, points, ty) if points else None
        if settled is None:
            return self.fallback.eval_batch(expr, points, ty)
        return self._finish(
            settled, points,
            lambda residue: self.fallback._ladder_batch(expr, residue, ty),
        )

    def eval_bool_batch(self, expr, points) -> list[PointResult]:
        check_deadline()
        settled = self._dd.evaluate_bool(expr, points) if points else None
        if settled is None:
            return self.fallback.eval_bool_batch(expr, points)
        return self._finish(
            settled, points,
            lambda residue: self.fallback._ladder_bool_batch(expr, residue),
        )

    def _finish(self, results, points, ladder) -> list[PointResult]:
        """Send the unsettled points to ``ladder`` and count the batch,
        also when a deadline cuts the ladder short."""
        residue = [i for i, result in enumerate(results) if result is None]
        n = len(points)
        try:
            if residue:
                laddered = ladder([points[i] for i in residue])
                for i, outcome in zip(residue, laddered):
                    results[i] = outcome
        finally:
            self._record_batch(
                n, fastpath=n - len(residue), escalated=len(residue)
            )
        return results
