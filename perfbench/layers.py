"""Per-layer timing for the traced run, measured from outside the program.

:func:`install` replaces public functions and methods of each layer with a
wrapper that opens a :mod:`repro.obs.trace` span named ``L.<layer>``
around the call and attaches work counts to it.  The program's own spans
(``phase.*``, ``egraph.search``, ``egraph.apply``, ...) nest in the same
trace, so one pass over a finished trace (:func:`fold`) yields every
layer's inclusive time, its self time (its time minus the time of the
wrapped layers it called) and its counts.  With no tracer armed a wrapper
costs one thread-local read, and the untraced runs never call
:func:`install` at all.

Pooled compile workers forked after :func:`install` inherit the wrappers,
so ``compile_many(trace=True)`` ships their spans home on
``JobOutcome.trace``.  For ``repro serve`` this file is also the launcher
of the traced server::

    python3 perfbench/layers.py DUMP.json serve --port 0 ...

which installs the wrappers, runs the ``repro`` CLI, and arms a tracer
around each ``ChassisSession.compile_payload`` call made while the file
:func:`switch_path` ``(DUMP.json)`` exists.  The file holds a label, and
the call's spans fold into that label's totals; the totals of every
label are written to ``DUMP.json`` when the server shuts down.  The
benchmark writes or removes the file between rounds of requests, so one
server alternates untraced and traced rounds.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

from repro.obs.trace import Trace, span, tracing
from spec import SELF_TIMED

#: Name of the span the benchmark opens around each op it times.
OP_SPAN = "bench.op"
#: Labels of the traced server's switch file: spans kept for the
#: per-layer metrics, and spans of rounds that only time the tracer.
FOLD, ARMED = "fold", "armed"


def switch_path(dump_path) -> Path:
    """The file that arms the traced server launched with ``dump_path``."""
    return Path(f"{dump_path}.on")


def _acceptance(args, kwargs, result):
    return {"acceptance": result.acceptance}


def _node_points(args, kwargs, result):
    from repro.ir.expr import App

    program, target, points = args[0], args[1], args[2]
    impls = target.impl_registry()
    nodes = sum(
        1 for _path, node in program.subexprs()
        if isinstance(node, App) and impls.get(node.op) is not None
    )
    return {"node_points": nodes * len(points)}


def _runner_report(args, kwargs, result):
    return {
        "iterations": result.iterations,
        "stop": result.stop_reason,
        "rules_truncated": sum(result.rules_truncated.values()),
    }


def _variants(args, kwargs, result):
    return {"variants": len(result)}


def _points(args, kwargs, result):
    points = args[2] if len(args) > 2 else kwargs["points"]
    return {"points": len(points)}


#: (layer, module, attribute, counter).  A dotted attribute is a method,
#: patched on its class.  A plain attribute is a function, patched in
#: every ``repro`` module that bound it by ``from ... import``; a class
#: (``TypedExtractor``) is patched only in the module named, where the
#: layer calls it.
WRAPPED = (
    ("sampler", "repro.accuracy.sampler", "sample_core", _acceptance),
    ("oracle", "repro.rival.backends.base", "OracleBackend.sample_batch", None),
    ("oracle", "repro.rival.backends.numpy_backend", "NumpyBackend.eval_batch", None),
    ("oracle", "repro.rival.backends.numpy_backend", "NumpyBackend.eval_bool_batch", None),
    ("oracle", "repro.rival.backends.mpmath_backend", "MpmathBackend.eval_batch", None),
    ("oracle", "repro.rival.backends.mpmath_backend", "MpmathBackend.eval_bool_batch", None),
    ("scalar", "repro.rival.eval", "RivalEvaluator.eval", None),
    ("loop", "repro.core.loop", "ImprovementLoop.run", None),
    ("localize", "repro.core.loop", "ImprovementLoop.localize", None),
    ("localerror", "repro.accuracy.localerror", "local_errors", _node_points),
    ("cost_opportunity", "repro.cost.opportunity", "cost_opportunities", None),
    ("isel", "repro.core.isel", "instruction_select", None),
    ("run_rules", "repro.egraph.runner", "run_rules", _runner_report),
    ("extract", "repro.egraph.multi_extract", "extract_variants", _variants),
    ("typed_extractor", "repro.core.isel", "TypedExtractor", None),
    ("series", "repro.core.series", "series_candidates", _variants),
    ("regimes", "repro.core.regimes", "infer_regimes", None),
    ("transcribe", "repro.core.transcribe", "transcribe", None),
    ("transcribe", "repro.core.transcribe", "transcribe_with_poly", None),
    ("score_candidates", "repro.core.loop", "ImprovementLoop.score", None),
    ("fpeval", "repro.accuracy.scoring", "pointwise_errors", _points),
    ("fpeval", "repro.accuracy.scoring", "score_program", _points),
    ("cache.get", "repro.service.cache", "CompileCache.get", None),
    ("cache.put", "repro.service.cache", "CompileCache.put", None),
    ("ledger", "repro.provenance.ledger", "ProvenanceLedger.record_job", None),
)


def _wrap(layer: str, fn, counter):
    name = "L." + layer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name) as record:
            result = fn(*args, **kwargs)
        if record is not None and counter is not None:
            record["attrs"].update(counter(args, kwargs, result))
        return result

    return wrapper


def install() -> None:
    """Wrap every layer in :data:`WRAPPED`, for the rest of the process."""
    for layer, module_name, attr, counter in WRAPPED:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(module, class_name)
            setattr(owner, method, _wrap(layer, owner.__dict__[method], counter))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(layer, original, counter)
        if isinstance(original, type):
            holders = [module]
        else:
            holders = [
                held for name, held in list(sys.modules.items())
                if name.startswith("repro") and getattr(held, attr, None) is original
            ]
        for holder in holders:
            setattr(holder, attr, wrapper)


def fold(spans: list[dict], totals: Counter) -> None:
    """Add one trace's spans to ``totals`` (keys as in :func:`layer_metrics`).

    Spans are recorded parent-first, so one forward pass finds each
    span's nearest wrapped ancestor.  A wrapped call nested in a call of
    the same layer adds to its self time but not to its inclusive time or
    call count.
    """
    layer = [s["name"][2:] if s["name"].startswith("L.") else None for s in spans]
    nearest: list[int | None] = [None] * len(spans)
    covered = [0.0] * len(spans)
    for index, record in enumerate(spans):
        parent = record["parent"]
        if parent is not None:
            nearest[index] = parent if layer[parent] else nearest[parent]
        name, dur = record["name"], record["dur"]
        if parent is None:
            totals["op.s"] += dur
        if name.startswith("phase.") or name in ("egraph.search", "egraph.apply"):
            totals[name + ".s"] += dur
        if layer[index] is None:
            continue
        above = []
        ancestor = nearest[index]
        while ancestor is not None:
            above.append(layer[ancestor])
            ancestor = nearest[ancestor]
        if above:
            covered[nearest[index]] += dur
        else:
            totals["top.s"] += dur
        if layer[index] == "scalar" and "oracle" in above:
            # An mpmath escalation inside a batch call: the oracle's work.
            layer[index] = "oracle"
        own = layer[index]
        if own in above:
            continue
        totals[own + ".s"] += dur
        totals[own + ".calls"] += 1
        for key, value in record["attrs"].items():
            if key == "stop":
                totals[f"{own}.stop.{value}"] += 1
            else:
                totals[f"{own}.{key}"] += value
    for index, record in enumerate(spans):
        if layer[index] is not None:
            totals[f"self.{layer[index]}.s"] += record["dur"] - covered[index]


def layer_metrics(totals: Counter) -> dict[str, float]:
    """Per-layer metrics derivable from folded spans alone."""
    calls = lambda layer: totals[layer + ".calls"]  # noqa: E731
    metrics = {
        "sampler.s": totals["sampler.s"],
        "sampler.calls": calls("sampler"),
        "sampler.acceptance": (
            totals["sampler.acceptance"] / calls("sampler") if calls("sampler") else 0.0
        ),
        "oracle.batch_s": totals["oracle.s"],
        "oracle.scalar_evals": calls("scalar"),
        "oracle.scalar_s": totals["scalar.s"],
        "localize.s": totals["localize.s"],
        "localize.calls": calls("localize"),
        "localerror.s": totals["localerror.s"],
        "localerror.node_points": totals["localerror.node_points"],
        "cost_opportunity.s": totals["cost_opportunity.s"],
        "cost_opportunity.calls": calls("cost_opportunity"),
        "isel.s": totals["isel.s"],
        "isel.calls": calls("isel"),
        "egraph.run_rules.s": totals["run_rules.s"],
        "egraph.run_rules.calls": calls("run_rules"),
        "egraph.search.s": totals["egraph.search.s"],
        "egraph.apply.s": totals["egraph.apply.s"],
        "egraph.iterations": totals["run_rules.iterations"],
        "egraph.stop.node_limit": totals["run_rules.stop.node-limit"],
        "egraph.stop.iteration_limit": totals["run_rules.stop.iteration-limit"],
        "egraph.stop.time_limit": totals["run_rules.stop.time-limit"],
        "extract.s": totals["extract.s"],
        "extract.typed_extractor_s": totals["typed_extractor.s"],
        "extract.variants": totals["extract.variants"],
        "series.s": totals["series.s"],
        "series.variants": totals["series.variants"],
        "regimes.s": totals["regimes.s"],
        "transcribe.s": totals["transcribe.s"],
        "score_candidates.s": totals["score_candidates.s"],
        "score_candidates.calls": calls("score_candidates"),
        "fpeval.point_evals": totals["fpeval.points"],
        "cache.get_s": totals["cache.get.s"],
        "cache.put_s": totals["cache.put.s"],
        "ledger.record_s": totals["ledger.s"],
        "trace.self_coverage": totals["top.s"] / totals["op.s"] if totals["op.s"] else 0.0,
        "trace.op_s": totals["op.s"],
    }
    for phase in ("parse", "sample", "transcribe", "improve", "regimes", "score"):
        metrics[f"phase.{phase}.s"] = totals[f"phase.{phase}.s"]
    for layer in SELF_TIMED:
        metrics[f"self.{layer}.s"] = totals[f"self.{layer}.s"]
    return metrics


def traced_op(totals: Counter, lock: threading.Lock, fn, *args, **kwargs):
    """Run one op under a fresh tracer and fold its spans into ``totals``."""
    trace = Trace()
    with tracing(trace):
        with span(OP_SPAN):
            result = fn(*args, **kwargs)
    with lock:
        fold(trace.spans, totals)
    return result


def _serve_traced(dump_path: str, argv: list[str]) -> int:
    """Run ``repro`` with the layers wrapped, tracing compiles while the
    switch file exists."""
    from repro.cli import main
    from repro.session import ChassisSession

    totals: defaultdict[str, Counter] = defaultdict(Counter)
    lock = threading.Lock()
    switch = switch_path(dump_path)
    install()
    compile_payload = ChassisSession.compile_payload

    def traced_compile_payload(self, *args, **kwargs):
        try:
            label = switch.read_text()
        except FileNotFoundError:
            return compile_payload(self, *args, **kwargs)
        with lock:
            sink = totals[label]
        payload, cached = traced_op(sink, lock, compile_payload, self, *args, **kwargs)
        if not cached:
            with lock:
                sink["frontier_kept"] += len(payload["frontier"])
        return payload, cached

    ChassisSession.compile_payload = traced_compile_payload
    try:
        return main(argv)
    finally:
        with lock, open(dump_path, "w") as handle:
            json.dump({label: dict(sink) for label, sink in totals.items()}, handle)


if __name__ == "__main__":
    sys.exit(_serve_traced(sys.argv[1], sys.argv[2:]))
