"""``repro.obs``: end-to-end tracing and metrics for the whole system.

Two complementary halves, both engineered to be near-zero-cost when off:

* :mod:`repro.obs.trace` — a thread-local :class:`Tracer` of nestable
  :func:`span`\\ s recording wall-clock, attributes and parent links into
  a per-job :class:`Trace`; merged across pooled worker processes into
  Chrome trace-event JSON (:func:`chrome_trace`, Perfetto-loadable).
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters and fixed-bucket latency histograms, rendered in Prometheus
  text exposition format by the serve ``/metrics`` route.

Instrumented layers: the six pipeline phases (``core/pipeline.py``),
improvement-loop iterations (``core/loop``), ``run_rules`` search/apply
(``egraph/runner``), oracle
evaluation counts (``rival/eval``, ``rival/backends``),
the exec build/run/validate path, and serve request handling.  Pooled
compile jobs ship their spans and engine counters back through
``JobOutcome``, so ``/health`` and ``--trace`` cover ``jobs >= 2``
compiles, not just inline ones.
"""

from .metrics import DEFAULT_BUCKETS, METRICS, Counter, Histogram, MetricsRegistry
from .trace import (
    Trace,
    Tracer,
    chrome_trace,
    span,
    tracing,
    write_chrome_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "METRICS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Trace",
    "Tracer",
    "chrome_trace",
    "span",
    "tracing",
    "write_chrome_trace",
]
