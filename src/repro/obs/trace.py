"""Low-overhead nestable spans: the tracing half of :mod:`repro.obs`.

A :class:`Trace` is one job's recording — a flat list of span records with
parent links — and a :class:`Tracer` is the thread-local recorder armed
over a region with :func:`tracing`.  Instrumentation sites call
:func:`span`, which is **near-zero-cost when no tracer is armed**: one
thread-local read and an immediate yield (the disabled path allocates no
span, takes no lock, and reads no clock).  That property is what lets the
pipeline, the improvement loop, the e-graph runner and the exec layer stay
permanently instrumented while tracing is off by default.

Spans record wall-relative start offsets (``perf_counter`` deltas against
a per-trace epoch that also carries a ``time.time()`` anchor), so traces
recorded in *different processes* — pooled compile workers ship theirs
back through ``JobOutcome`` — can be merged onto one absolute timeline by
:func:`chrome_trace`, which emits Chrome trace-event JSON loadable in
``chrome://tracing`` and Perfetto.

A Tracer is deliberately single-threaded: it is armed per compilation on
the thread doing the work (serve handler thread, submit worker, pool
worker process), never shared.  Traces, by contrast, travel as plain
data (:meth:`Trace.as_dict`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager

#: Span-record keys (each span is a plain dict, cheap to serialize):
#: ``name`` str, ``start`` float seconds since the trace epoch, ``dur``
#: float seconds, ``parent`` int index into the trace's span list or None,
#: ``attrs`` dict of JSON-able attributes.

_LOCAL = threading.local()


class Trace:
    """One job's span recording plus the clock anchors needed to merge it."""

    def __init__(self, name: str = "", pid: int | None = None):
        self.name = name
        self.pid = os.getpid() if pid is None else pid
        #: Wall-clock anchor: ``epoch_wall + span["start"]`` is an absolute
        #: timestamp comparable across processes.
        self.epoch_wall = time.time()
        self.epoch_perf = time.perf_counter()
        self.spans: list[dict] = []

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "pid": self.pid,
            "epoch_wall": self.epoch_wall,
            "spans": self.spans,
        }

    def span_names(self) -> list[str]:
        return [record["name"] for record in self.spans]

    def find(self, name: str) -> list[dict]:
        """Every span record with this name, in recording order."""
        return [record for record in self.spans if record["name"] == name]

    def phase_seconds(self) -> dict[str, float]:
        """Summed duration per ``phase.*`` span (the timing breakdown)."""
        totals: dict[str, float] = {}
        for record in self.spans:
            name = record["name"]
            if name.startswith("phase."):
                phase = name[len("phase."):]
                totals[phase] = totals.get(phase, 0.0) + record["dur"]
        return totals


class Tracer:
    """The active recorder for one thread; holds the open-span stack."""

    __slots__ = ("trace", "_stack")

    def __init__(self, trace: Trace):
        self.trace = trace
        self._stack: list[int] = []

    def begin(self, name: str, attrs: dict) -> dict:
        record = {
            "name": name,
            "start": time.perf_counter() - self.trace.epoch_perf,
            "dur": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self.trace.spans.append(record)
        self._stack.append(len(self.trace.spans) - 1)
        return record

    def end(self, record: dict) -> None:
        record["dur"] = (
            time.perf_counter() - self.trace.epoch_perf - record["start"]
        )
        if self._stack:
            self._stack.pop()


@contextmanager
def tracing(trace: Trace):
    """Arm ``trace`` as this thread's recording for the enclosed region.

    Re-entrant like the engine-stats sink: an inner arming shadows the
    outer one and the previous tracer is restored on exit.
    """
    previous = getattr(_LOCAL, "tracer", None)
    _LOCAL.tracer = Tracer(trace)
    try:
        yield trace
    finally:
        _LOCAL.tracer = previous


@contextmanager
def span(name: str, **attrs):
    """Record a nested span around the enclosed work (no-op when untraced).

    Yields the span record (a dict) so callers can attach attributes
    discovered mid-span — ``if s is not None: s["attrs"]["x"] = ...`` —
    or ``None`` when no tracer is armed.
    """
    tracer = getattr(_LOCAL, "tracer", None)
    if tracer is None:
        yield None
        return
    record = tracer.begin(name, attrs)
    try:
        yield record
    finally:
        tracer.end(record)


# --- Chrome trace-event export ----------------------------------------------------


def chrome_trace(traces: list[Trace | dict]) -> dict:
    """Merge traces (possibly from many processes) into Chrome trace JSON.

    Returns the ``{"traceEvents": [...]}`` object format; every span
    becomes a complete (``"ph": "X"``) event with microsecond timestamps
    on one absolute timeline, normalized so the earliest span starts at
    ts=0.  Loadable in ``chrome://tracing`` and Perfetto.
    """
    events: list[dict] = []
    for trace in traces:
        payload = trace.as_dict() if isinstance(trace, Trace) else trace
        base_us = payload.get("epoch_wall", 0.0) * 1e6
        pid = payload.get("pid", 0)
        label = payload.get("name", "")
        for record in payload.get("spans", ()):
            args = dict(record.get("attrs") or {})
            if label:
                args.setdefault("job", label)
            events.append({
                "name": record["name"],
                "cat": "repro",
                "ph": "X",
                "ts": base_us + record["start"] * 1e6,
                "dur": record["dur"] * 1e6,
                "pid": pid,
                "tid": 0,
                "args": args,
            })
    if events:
        origin = min(event["ts"] for event in events)
        for event in events:
            event["ts"] -= origin
    events.sort(key=lambda event: (event["pid"], event["ts"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | os.PathLike, traces: list[Trace | dict]) -> int:
    """Write merged Chrome trace JSON to ``path``; returns the event count."""
    payload = chrome_trace(traces)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(payload["traceEvents"])
