"""Provenance: data lineage for every compiled artifact (see ledger.py).

The ledger is imported eagerly — :mod:`repro.session` depends on it, and
it depends only on the cache/metrics layers below.  The provider/report
layers sit *above* the session (they drive experiments), so they are
exposed lazily to keep the package importable from inside the session
without a cycle.
"""

from __future__ import annotations

from .ledger import LEDGER_SCHEMA, ProvenanceLedger, host_info

_LAZY = {
    "DataProvider": "provider",
    "FigureData": "provider",
    "SessionDataProvider": "provider",
    "PREFERRED_BENCHMARKS": "provider",
    "FIGURES": "provider",
    "FIGURE_NAMES": "provider",
    "COST_MODEL_TARGETS": "provider",
    "ARTIFACT_SCHEMA": "report",
    "generate_report": "report",
}

__all__ = [
    "LEDGER_SCHEMA",
    "ProvenanceLedger",
    "host_info",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
