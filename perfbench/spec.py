"""What the benchmark measures: its workloads, their panels, and its metrics.

This module is the single definition of the benchmark.  ``run.py
--write-manifest`` renders it into ``BENCHMARK.json`` at the repository
root, so the manifest and the code that measures it cannot drift apart.

Seeds.  ``--seed`` decides the order of the ops in every pass and which
cached request a ``serve`` client repeats.  The (core, target) panels and
the sample seed (the library default) are the same for every seed, so every
pass of every run does the same work and the quality metrics
(``best_error_bits``, ``speedup_geomean``) move only when compiler output
moves.  A per-seed draw from the 60-core suite, or per-seed sample seeds,
changed the work between seeds by more than the bounds below.

Workloads.  ``BENCHMARK.json`` lists ``serve`` and ``batch``, which
between them run every layer the per-layer metrics name.  ``compile`` and
``score`` were the noisiest on the 2-vCPU host this was tuned on, whose
speed swings by 20-40% over tens of seconds: in two sets of ten 20-second
runs their spread (quartile distance over median) reached 0.38 and 0.36
against a bound of 0.25, while ``serve`` and ``batch`` stayed within it.
The two stay runnable (``--workload``, ``--all``) with the same metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

#: A seed never used while tuning the benchmark or a change measured with
#: it; confirm a claimed gain on it before accepting the claim.
HELD_OUT_SEED = 90217

#: Points per ``repro serve`` sample set (``--points``).
SERVE_POINTS = 128

#: Points per ``score`` op (``n_train`` = ``n_test``).
SCORE_POINTS = 1024

#: Worker processes of the ``batch`` pool and client connections of
#: ``serve``: the benchmark host's ``nproc``.
WIDTH = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (core name, target name) pairs of one pass.
    panel: tuple[tuple[str, str], ...]
    #: Runnable, but left out of ``BENCHMARK.json`` (see above).
    report_only: bool = False


def _on(target: str, *cores: str) -> tuple[tuple[str, str], ...]:
    return tuple((core, target) for core in cores)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "compile",
            "The unit of work: default compiles in one warm session. E-graph, "
            "localize, cost opportunity and scoring do >=90% of the work; "
            "sampling ~3%.",
            # Two cores per target, 0.35-0.8 s each at defaults; arith
            # exercises the polynomial-fallback transcribe.
            _on("c99", "sqrt-sub", "expm1-naive")
            + _on("fdlibm", "acoth", "sinh-naive")
            + _on("avx", "exp-frac", "cube-diff")
            + _on("arith", "cos-frac", "sigmoid-diff"),
            report_only=True,
        ),
        Workload(
            "score",
            "Oracle-bound: session.score at 1024 points, sampled anew per op. Rival "
            "rungs, sampler and fpeval do all the work, the e-graph none, so "
            "e-graph changes must not move it.",
            # Ladder-heavy cores (most points escalate to mpmath), mixed
            # ones, ones the longdouble/dd rungs settle outright, and a
            # low-acceptance precondition (triangle-area).
            _on(
                "c99",
                "log1p-naive", "sqrt-2nd-diff", "log-sub", "hypot3-diff",
                "haversine-half", "triangle-area", "cos-frac", "cube-expand",
            ),
            report_only=True,
        ),
        Workload(
            "serve",
            "Second unit of work: repro serve over HTTP, 2 clients, half "
            "cache hits. Measures HTTP, cache and ledger reads beside cold "
            "compiles and contention between handlers.",
            # Cheap cold compiles (0.2-0.45 s), so a run holds many rounds.
            _on(
                "c99",
                "sqrt-sub", "expm1-naive", "rcp-diff", "quad-disc",
                "harmonic-mean", "sum-sq-diff",
            ),
        ),
        Workload(
            "batch",
            "ChassisSession(jobs=2).compile_many on the persistent "
            "WorkerPool: the only workload that runs the process-pool layer "
            "(service.pool, service.api, scheduler).",
            # Jobs of a similar size (0.15-0.35 s each at defaults), so
            # that no single slow job sets the wall time of a call.
            _on("c99", "sum-sq-diff", "rcp-diff")
            + _on("fdlibm", "tan-sub-sin", "x-sub-sin")
            + _on("avx", "sqrt-sub", "rcp-diff")
            + _on("arith", "cube-diff", "lorentz"),
        ),
    )
}

#: Core compiled once per target during set-up, to build the rule and
#: operator tables; not in any panel.
WARMUP_CORE = "midpoint"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: before a change counts as a regression (end-to-end metrics only).
    bound: float | None = None
    #: Printed and stored, but left out of ``BENCHMARK.json``: it does
    #: not apply to every workload, or it is 0 when nothing fails.
    report_only: bool = False


#: Timing bounds are wide because the 2-core host this was tuned on
#: switches between a fast and a ~40% slower regime every few seconds,
#: sometimes for tens of seconds; quality bounds are tight because those
#: metrics are exact repeats.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "ops/s", "higher", 0.25),
    Metric("latency_p50_s", "s", "lower", 0.25),
    Metric("latency_tail_s", "s", "lower", 0.25),
    Metric("warm_p50_s", "s", "lower", 0.25, report_only=True),
    Metric("warm_tail_s", "s", "lower", 0.25, report_only=True),
    Metric("failed_frac", "ratio", "lower", 0.0, report_only=True),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("best_error_bits", "bits", "lower", 0.02),
    Metric("speedup_geomean", "x", "higher", 0.02),
)

#: Wrapped layers: self time is each one's time minus the time of the
#: wrapped layers it called.
SELF_TIMED = (
    "sampler", "oracle", "scalar", "loop", "localize", "localerror",
    "cost_opportunity", "isel", "run_rules", "extract", "typed_extractor",
    "series", "regimes", "transcribe", "score_candidates", "fpeval",
    "cache.get", "cache.put", "ledger",
)


def _per_layer() -> tuple[Metric, ...]:
    s = lambda name: Metric(name, "s", "lower")  # noqa: E731
    n = lambda name, better="lower": Metric(name, "count", better)  # noqa: E731
    r = lambda name, better="lower": Metric(name, "ratio", better)  # noqa: E731
    metrics = [
        # accuracy.sampler
        s("sampler.s"), n("sampler.calls"), r("sampler.acceptance", "higher"),
        # rival: batched rungs, then the scalar evaluator
        s("oracle.batch_s"), n("oracle.batch_points"),
        r("oracle.longdouble_frac", "higher"), r("oracle.dd_frac"),
        r("oracle.ladder_frac"), n("oracle.scalar_evals"), s("oracle.scalar_s"),
        # session oracle lock
        s("oracle_lock.wait_s"), s("oracle_lock.hold_s"),
        # core.loop, accuracy.localerror, cost.opportunity
        s("localize.s"), n("localize.calls"),
        s("localerror.s"), n("localerror.node_points"),
        s("cost_opportunity.s"), n("cost_opportunity.calls"),
        # core.isel and the e-graph engine
        s("isel.s"), n("isel.calls"),
        n("isel.saturation_hits", "higher"), n("isel.saturation_misses"),
        s("egraph.run_rules.s"), n("egraph.run_rules.calls"),
        s("egraph.search.s"), s("egraph.apply.s"),
        n("egraph.enodes_built"), n("egraph.matches_found"),
        n("egraph.matches_applied"), n("egraph.iterations"),
        n("egraph.stop.node_limit"), n("egraph.stop.iteration_limit"),
        n("egraph.stop.time_limit"), n("egraph.rules_truncated"),
        # egraph.typed_extract / multi_extract
        s("extract.s"), s("extract.typed_extractor_s"),
        n("extract.variants", "higher"),
        # core.series, core.regimes, core.transcribe
        s("series.s"), n("series.variants", "higher"),
        s("regimes.s"), s("transcribe.s"),
        # accuracy.scoring / fpeval
        s("score_candidates.s"), n("score_candidates.calls"),
        n("fpeval.point_evals"), r("improve.frontier_kept_frac", "higher"),
    ]
    metrics += [
        s(f"phase.{phase}.s")
        for phase in ("parse", "sample", "transcribe", "improve", "regimes", "score")
    ]
    metrics += [
        # service.cache, provenance.ledger, service.server
        s("cache.get_s"), s("cache.put_s"),
        n("cache.hits", "higher"), n("cache.misses"), s("ledger.record_s"),
        s("http.server_s"), s("http.queue_s"),
        # service.pool
        s("pool.worker_s"), r("pool.efficiency", "higher"),
    ]
    metrics += [s(f"self.{layer}.s") for layer in SELF_TIMED]
    metrics += [
        # Share of op time spent inside some wrapped layer, and how much
        # slower the traced pass ran than the untraced one.
        r("trace.self_coverage", "higher"), r("trace.overhead_frac"),
        s("trace.op_s"),
    ]
    return tuple(metrics)


PER_LAYER: tuple[Metric, ...] = _per_layer()

#: Seconds one run measures.  With two workloads in the manifest a run
#: may take about a minute; longer runs average over more of the host's
#: slow and fast spells.
RUN_SECONDS = 40


def manifest() -> dict:
    """The ``BENCHMARK.json`` object."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why}
            for workload in WORKLOADS.values() if not workload.report_only
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END if not m.report_only
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
