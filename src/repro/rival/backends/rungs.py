"""The oracle fast-path rung cascade: longdouble → double-double → ladder.

The batched oracle is structured as an explicit cascade of *rungs*.
Each rung is a vectorized acceptance filter: given one expression and a
block of points it may **settle** a point (produce the exact
:class:`~repro.rival.backends.base.PointResult` the mpmath ladder would
produce, bit for bit) or **pass** on it, and whatever survives every
rung climbs the unchanged mpmath escalation ladder.  Because every rung
only accepts a point when its outward-rounded enclosure collapses to a
single target-format float, the cascade is bit-identical to running the
ladder alone by construction — rungs trade precision for throughput,
never for semantics.

Concretely (see :class:`repro.rival.backends.numpy_backend.NumpyBackend`):

* rung 1 — ``longdouble``: one numpy sweep in 80-bit extended precision
  (:mod:`.numpy_backend`), ~11 bits of headroom over binary64;
* rung 2 — ``dd``: batched double-double interval arithmetic
  (:mod:`.dd`), ~106 effective bits, built from error-free transforms,
  for the cancellation-dominated residue the longdouble sweep cannot
  settle;
* rung 3 — the per-point mpmath ladder (80→1280 bits), the authority.

This module holds the pieces shared by every rung implementation: the
:class:`Rung` contract, the bounded compiled-program cache, the
:class:`Unsupported` escape hatch, and :func:`run_cascade`, the driver
that threads a shrinking residue through the rung list and reports
per-rung hit counts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from .base import PointResult

#: Compiled programs each rung keeps (programs are small; expressions
#: churn during improvement loops).
MAX_PROGRAMS = 256


class Unsupported(Exception):
    """The expression has no faithful vector mirror on this rung."""


class ProgramCache:
    """LRU of at most :data:`MAX_PROGRAMS` compiled straight-line programs,
    keyed by caller.

    ``None`` entries are cached too: an expression a rung cannot compile
    (an :class:`Unsupported` op) stays unsupported, and re-raising the
    builder on every batch would dominate small-batch calls.
    """

    def __init__(self):
        self._programs: OrderedDict[tuple, object | None] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple, build):
        with self._lock:
            if key in self._programs:
                self._programs.move_to_end(key)
                return self._programs[key]
        try:
            program = build()
        except Unsupported:
            program = None
        with self._lock:
            self._programs[key] = program
            while len(self._programs) > MAX_PROGRAMS:
                self._programs.popitem(last=False)
        return program


class Rung:
    """One vectorized acceptance filter of the cascade."""

    #: Stable rung name used in counters, metrics labels and ``/health``.
    name = "abstract"

    def evaluate(
        self, expr, points: Sequence[dict], ty: str
    ) -> list[PointResult | None] | None:
        """Settle what this rung can; ``None`` entries pass to the next.

        Returns ``None`` (instead of a list) when the rung does not apply
        at all — unsupported expression, unsupported target format — so
        the driver can tell "rung stood down" apart from "rung settled
        nothing".
        """
        raise NotImplementedError


def run_cascade(
    rungs: Sequence[Rung], expr, points: Sequence[dict], ty: str
) -> tuple[list[PointResult | None], list[int], dict[str, int], bool]:
    """Drive ``points`` through the rungs, each seeing the prior residue.

    Returns ``(results, residue, hits, applicable)``: per-point results
    (``None`` where every rung passed), the indices of the unsettled
    residue (the ladder's work list), per-rung settle counts, and whether
    *any* rung applied (when none did, the caller should delegate the
    whole batch to its fallback so counters follow the historical
    delegate path).
    """
    n = len(points)
    results: list[PointResult | None] = [None] * n
    residue = list(range(n))
    hits: dict[str, int] = {}
    applicable = False
    for rung in rungs:
        if not residue:
            hits.setdefault(rung.name, 0)
            continue
        subset = points if len(residue) == n else [points[i] for i in residue]
        outcome = rung.evaluate(expr, subset, ty)
        if outcome is None:
            hits.setdefault(rung.name, 0)
            continue
        applicable = True
        next_residue: list[int] = []
        settled = 0
        for index, result in zip(residue, outcome):
            if result is None:
                next_residue.append(index)
            else:
                results[index] = result
                settled += 1
        hits[rung.name] = settled
        residue = next_residue
    return results, residue, hits, applicable
