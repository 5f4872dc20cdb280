"""Saturation-throughput benchmark for the e-graph engine (standalone).

Unlike the figure-regeneration harnesses (which are pytest modules), this
is a plain script so CI can run it directly::

    PYTHONPATH=src python benchmarks/bench_egraph.py [--smoke] [--out PATH]

It measures the engine :func:`run_rules` runs (``v2``): head-indexed
e-matching that searches only the rules whose left-hand side heads are
all in the graph, through one generated program per rule that also skips
already-applied matches.

Each rule's program is generated once per process, on its first search.
The script builds the target's programs up front and records how many it
generated and the seconds that took (``rule_programs``, per target), so
that one-time cost stays visible and out of the saturation timings.

Reported throughput is e-nodes added per second of saturation
(``num_nodes`` delta / wall clock) at one fixed :class:`RunnerLimits`
(the engine default, or a reduced budget under ``--smoke``).  The script
also times an end-to-end ``session.compile`` per benchmark (with its
saturation and e-node counts) so the BENCH trajectory has an engine
datapoint.

Results land in ``results/egraph_bench.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.accuracy.sampler import SampleConfig  # noqa: E402
from repro.core.isel import _rules_for  # noqa: E402
from repro.core.loop import CompileConfig  # noqa: E402
from repro.egraph import (  # noqa: E402
    EGraph, RunnerLimits, rule_program, run_rules,
)
from repro.session import ChassisSession  # noqa: E402
from repro.targets import get_target  # noqa: E402

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Same interleaving as benchmarks/conftest.py's bench_cores fixture.
SAMPLE = [
    "slerp-weight", "quadratic-mod", "logsumexp2", "sqrt-sub",
    "gauss-kernel", "acoth", "ellipse-angle", "logistic",
]


def saturate(expr, rules, limits):
    """One saturation run; returns (nodes added, elapsed, stop reason)."""
    egraph = EGraph()
    egraph.add_expr(expr)
    base = egraph.num_nodes
    start = time.monotonic()
    stop = run_rules(egraph, rules, limits).stop_reason
    elapsed = time.monotonic() - start
    return egraph.num_nodes - base, elapsed, stop


def build_programs(rules) -> dict:
    """Generate every rule's program now; returns how many were new (not
    already cached from another target's identical rule) and the time."""
    before = rule_program.cache_info().currsize
    start = time.monotonic()
    for rule in rules:
        rule_program(rule.lhs, rule.rhs)
    return {
        "rules": len(rules),
        "generated": rule_program.cache_info().currsize - before,
        "seconds": round(time.monotonic() - start, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budget for CI (2 benchmarks, small limits)")
    parser.add_argument("--target", default="c99")
    parser.add_argument("--out", default=str(RESULTS / "egraph_bench.json"))
    args = parser.parse_args(argv)

    target = get_target(args.target)
    rules = _rules_for(target)
    programs = {target.name: build_programs(rules)}
    if args.smoke:
        names = SAMPLE[:2]
        limits = RunnerLimits(
            max_iterations=4, max_nodes=800, max_matches_per_rule=150
        )
        points, iterations = 8, 1
    else:
        names = SAMPLE
        limits = RunnerLimits()  # the engine default: the acceptance budget
        points, iterations = 16, 1

    from repro.benchsuite import core_named

    cores = [core_named(name) for name in names]
    rows = []
    total_nodes, total_seconds = 0, 0.0

    for core in cores:
        nodes, elapsed, stop = saturate(core.body, rules, limits)
        total_nodes += nodes
        total_seconds += elapsed
        rate = round(nodes / elapsed, 1) if elapsed else None
        rows.append({
            "benchmark": core.name,
            "engines": {"v2": {
                "nodes": nodes,
                "seconds": round(elapsed, 4),
                "nodes_per_sec": rate,
                "stop": stop,
            }},
        })
        print(f"{core.name}: v2={rate or 0:.0f}n/s")

    summary = {"v2": {
        "nodes": total_nodes,
        "seconds": round(total_seconds, 3),
        "nodes_per_sec": round(
            total_nodes / total_seconds if total_seconds else 0.0, 1
        ),
    }}

    # End-to-end: one warm-session compile per benchmark (v2 engine),
    # recording how many saturations it ran and the e-nodes they built.
    e2e = []
    with ChassisSession(
        config=CompileConfig(iterations=iterations, localize_points=8),
        sample_config=SampleConfig(n_train=points, n_test=points),
    ) as session:
        for core in cores:
            before = session.stats.engine.as_dict()
            start = time.monotonic()
            try:
                result = session.compile(core, target)
                status = "ok"
                frontier = len(result.frontier)
            except Exception as error:  # keep the bench running per-core
                status, frontier = f"failed: {type(error).__name__}", 0
            after = session.stats.engine.as_dict()
            e2e.append({
                "benchmark": core.name,
                "status": status,
                "seconds": round(time.monotonic() - start, 3),
                "frontier": frontier,
                "saturations": after["saturations"] - before["saturations"],
                "enodes_built": after["enodes_built"] - before["enodes_built"],
            })

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "target": target.name,
        "limits": {
            "max_iterations": limits.max_iterations,
            "max_nodes": limits.max_nodes,
            "max_matches_per_rule": limits.max_matches_per_rule,
        },
        "rule_programs": programs,
        "benchmarks": rows,
        "summary": summary,
        "compile_e2e": e2e,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")

    built = programs[target.name]
    print(f"\nrule programs: {built['generated']} generated in "
          f"{built['seconds']:.3f}s")
    print(f"summary: v2 {summary['v2']['nodes_per_sec']:.0f} n/s")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
