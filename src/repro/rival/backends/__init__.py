"""Pluggable oracle backends (see :mod:`repro.rival.backends.base`).

Two strategies behind one :class:`OracleBackend` protocol:

* ``numpy`` (alias ``auto``, the default) — the vectorized rung cascade
  (:mod:`.rungs`): an extended-precision interval sweep, then batched
  double-double interval arithmetic (:mod:`.dd`), each accepting only
  points whose outward-rounded enclosure already rounds uniquely in the
  target format; the residue escalates to the mpmath ladder.
* ``mpmath`` — the original escalation ladder alone (the reference
  semantics the fast path must match bit-for-bit).

Process-level parallelism lives one layer up: pooled compiles each build
their own backend inside a :class:`~repro.service.pool.WorkerPool`
worker (see :func:`repro.service.scheduler.run_job`).

Select with ``ChassisSession(oracle_backend=...)`` or the
``REPRO_ORACLE_BACKEND`` environment variable.
"""

from __future__ import annotations

from ..eval import RivalEvaluator
from .base import (
    BACKEND_NAMES,
    DOMAIN_ERROR,
    INVALID,
    OK,
    PRECISION_EXHAUSTED,
    OracleBackend,
    OracleCounters,
    PointResult,
    classify_failure,
    iter_ok_values,
    resolve_backend_name,
)
from .mpmath_backend import MpmathBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "BACKEND_NAMES",
    "DOMAIN_ERROR",
    "INVALID",
    "OK",
    "PRECISION_EXHAUSTED",
    "MpmathBackend",
    "NumpyBackend",
    "OracleBackend",
    "OracleCounters",
    "PointResult",
    "classify_failure",
    "iter_ok_values",
    "make_backend",
    "resolve_backend_name",
]


def make_backend(
    name: str | None = None,
    *,
    evaluator: RivalEvaluator | None = None,
    lock=None,
) -> OracleBackend:
    """Build the oracle backend for ``name`` (None: environment, then auto).

    ``evaluator`` is the shared escalation ladder (a fresh one when
    omitted); ``lock`` is a zero-arg callable returning a context manager
    serializing the process-global mpmath rung (sessions pass their
    instrumented oracle section).
    """
    resolved = resolve_backend_name(name)
    evaluator = evaluator if evaluator is not None else RivalEvaluator()
    ladder = MpmathBackend(evaluator, lock=lock)
    if resolved == "mpmath":
        return ladder
    return NumpyBackend(ladder)
