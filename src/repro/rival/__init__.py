"""Rival-style interval arithmetic: correctly-rounded real evaluation."""

from .backends import (
    BACKEND_NAMES,
    MpmathBackend,
    NumpyBackend,
    OracleBackend,
    OracleCounters,
    PointResult,
    make_backend,
    resolve_backend_name,
)
from .eval import (
    DEFAULT_PRECISIONS,
    PrecisionExhausted,
    RivalEvaluator,
    decide,
    evaluate,
    round_to_format,
)
from .interval import INTERVAL_OPS, DomainError, Interval

__all__ = [
    "Interval",
    "DomainError",
    "INTERVAL_OPS",
    "RivalEvaluator",
    "evaluate",
    "decide",
    "PrecisionExhausted",
    "round_to_format",
    "DEFAULT_PRECISIONS",
    "BACKEND_NAMES",
    "MpmathBackend",
    "NumpyBackend",
    "OracleBackend",
    "OracleCounters",
    "PointResult",
    "make_backend",
    "resolve_backend_name",
]
