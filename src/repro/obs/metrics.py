"""Process-wide counters and latency histograms: the metrics half of
:mod:`repro.obs`.

One :class:`MetricsRegistry` (the module-level :data:`METRICS`) holds
every metric family in the process.  Instrumentation sites resolve a
child by ``(family name, label set)`` and bump it; the serve front-end's
``/metrics`` route and ``repro health`` render the whole registry in the
Prometheus text exposition format (version 0.0.4).

Design points:

* **Fixed-bucket histograms** — latency distributions are recorded into a
  static bucket ladder (no per-observation allocation beyond one index
  bump), with cumulative ``_bucket{le=...}``, ``_sum`` and ``_count``
  lines on exposition, exactly the Prometheus histogram contract.
* **Cheap when disabled** — ``REPRO_METRICS=0`` (or
  ``METRICS.enabled = False``) turns every ``inc``/``observe`` into a
  single attribute check.  Metrics are *on* by default: every site is
  coarse-grained (per phase, per saturation, per request — never
  per-point), so the enabled cost is a lock-free int/float bump behind
  one registry lock acquisition.
* **Label children are cached** — ``registry.counter(name, phase="improve")``
  returns the same child object every call, so hot sites may also resolve
  once and keep the handle.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left

#: Latency bucket ladder (seconds) shared by every duration histogram:
#: spans sub-millisecond phase hits through multi-minute compiles.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


def _format_value(value: float) -> str:
    """Prometheus sample-value formatting (integers stay integral)."""
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [
        f'{key}="{_escape(value)}"' for key, value in labels
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class Counter:
    """A monotonically increasing sample (one label set of a family)."""

    __slots__ = ("_registry", "labels", "value")

    def __init__(self, registry: "MetricsRegistry", labels):
        self._registry = registry
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self.value += amount

    def _lines(self, name: str):
        yield f"{name}{_format_labels(self.labels)} {_format_value(self.value)}"


class Histogram:
    """A fixed-bucket distribution (one label set of a family)."""

    __slots__ = ("_registry", "labels", "buckets", "counts", "sum", "count")

    def __init__(self, registry: "MetricsRegistry", labels, buckets):
        self._registry = registry
        self.labels = labels
        self.buckets = buckets
        #: Per-bucket counts; one extra slot for the +Inf overflow bucket.
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1

    def _lines(self, name: str):
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            le = _format_labels(self.labels, f'le="{_format_value(bound)}"')
            yield f"{name}_bucket{le} {cumulative}"
        le = _format_labels(self.labels, 'le="+Inf"')
        yield f"{name}_bucket{le} {self.count}"
        yield f"{name}_sum{_format_labels(self.labels)} {_format_value(self.sum)}"
        yield f"{name}_count{_format_labels(self.labels)} {self.count}"


class MetricsRegistry:
    """Every metric family in one process, renderable as Prometheus text."""

    def __init__(self, enabled: bool | None = None):
        if enabled is None:
            enabled = os.environ.get("REPRO_METRICS", "1") != "0"
        self.enabled = enabled
        self._lock = threading.RLock()
        #: family name -> (kind, help text)
        self._families: dict[str, tuple[str, str]] = {}
        #: (family name, sorted label items) -> metric child
        self._children: dict[tuple, object] = {}
        #: family name -> zero-arg callable returning a float (gauges
        #: computed at exposition time, e.g. session-owned totals).
        self._gauge_fns: dict[str, tuple[str, object]] = {}

    # --- registration ---------------------------------------------------------------

    def _child(self, kind: str, name: str, help_text: str, labels: dict, factory):
        label_items = tuple(sorted(labels.items()))
        key = (name, label_items)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                self._families[name] = (kind, help_text)
            elif family[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {family[0]}"
                )
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = factory(label_items)
            return child

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        """The counter child for this (family, label set), creating both."""
        return self._child(
            "counter", name, help_text, labels,
            lambda items: Counter(self, items),
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        """The histogram child for this (family, label set), creating both."""
        return self._child(
            "histogram", name, help_text, labels,
            lambda items: Histogram(self, items, buckets),
        )

    def gauge_fn(self, name: str, fn, help_text: str = "") -> None:
        """Register a gauge computed by ``fn()`` at exposition time.

        Re-registering a name replaces the callable (a restarted server
        re-binding its session must not accumulate dead closures).
        """
        with self._lock:
            self._gauge_fns[name] = (help_text, fn)

    # --- exposition -------------------------------------------------------------------

    def exposition(self) -> str:
        """The whole registry in Prometheus text format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.items())
            children: dict[str, list] = {}
            for (name, _labels), child in self._children.items():
                children.setdefault(name, []).append(child)
            gauges = sorted(self._gauge_fns.items())
        for name, (kind, help_text) in families:
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for child in sorted(
                children.get(name, ()), key=lambda c: c.labels
            ):
                lines.extend(child._lines(name))
        for name, (help_text, fn) in gauges:
            try:
                value = float(fn())
            except Exception:  # a broken gauge must not break scraping
                continue
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


#: The process-wide registry every instrumentation site records into.
METRICS = MetricsRegistry()
