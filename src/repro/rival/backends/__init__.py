"""Pluggable oracle backends (see :mod:`repro.rival.backends.base`).

Two strategies behind one :class:`OracleBackend` protocol:

* ``numpy`` (alias ``auto``, the default) — one batched double-double
  interval program per expression (:mod:`.dd`), accepting only points
  whose outward-rounded enclosure already rounds uniquely in the target
  format (or whose condition verdict is certain); the residue escalates
  to the mpmath ladder.
* ``mpmath`` — the original escalation ladder alone (the reference
  semantics the fast path must match bit-for-bit).

Process-level parallelism lives one layer up: pooled compiles each build
their own backend inside a :class:`~repro.service.pool.WorkerPool`
worker (see :func:`repro.service.scheduler.run_job`).

Select with ``ChassisSession(oracle_backend=...)`` or the
``REPRO_ORACLE_BACKEND`` environment variable.
"""

from __future__ import annotations

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
    "make_backend",
    "resolve_backend_name",
]


def make_backend(name: str | None = None) -> OracleBackend:
    """Build the oracle backend for ``name`` (None: environment, then auto).

    Backends hold no process-global state, so one may serve several
    threads at once; each counts its own work in its
    :meth:`~.OracleBackend.counters`.
    """
    ladder = MpmathBackend()
    if resolve_backend_name(name) == "mpmath":
        return ladder
    return NumpyBackend(ladder)
