"""Saturation-throughput benchmark for the e-graph engine (standalone).

Unlike the figure-regeneration harnesses (which are pytest modules), this
is a plain script so CI can run it directly::

    PYTHONPATH=src python benchmarks/bench_egraph.py [--smoke] [--out PATH]

It measures two engines over the benchsuite sample:

* ``legacy``      — an in-file emulation of the pre-refactor (seed) engine:
  pattern roots found by scanning *every* e-class, every rule re-matched
  against the whole graph every iteration, all raw matches (mostly no-op
  re-applications) instantiated and unioned.  The emulation runs against
  today's :class:`EGraph`, which now has an O(1) node counter the seed
  engine lacked, so the legacy numbers here are *flattering* — the real
  seed engine was slower still.
* ``v2``          — the engine :func:`run_rules` runs: head-indexed
  e-matching that searches only the rules whose left-hand side heads are
  all in the graph, and skips already-applied matches.

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
from repro.egraph import EGraph, RunnerLimits, run_rules  # noqa: E402
from repro.egraph.ematch import _match, instantiate  # noqa: E402
from repro.session import ChassisSession  # noqa: E402
from repro.targets import get_target  # noqa: E402

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Same interleaving as benchmarks/conftest.py's bench_cores fixture.
SAMPLE = [
    "slerp-weight", "quadratic-mod", "logsumexp2", "sqrt-sub",
    "gauss-kernel", "acoth", "ellipse-angle", "logistic",
]


# --- the pre-refactor engine, emulated --------------------------------------------

#: Wall-clock cap of the seed engine's saturation loop (seconds).  Today's
#: runner has no clock; the emulated seed engine keeps the one it had.
LEGACY_TIME_LIMIT = 10.0

def _legacy_search(egraph, pattern, limit):
    """Seed-engine search: App roots by scanning every class's nodes."""
    from repro.ir.expr import App

    results = []
    if isinstance(pattern, App):
        seen = set()
        for eclass in egraph.classes():
            hit = any(node[0] == pattern.op for node in eclass.nodes)
            if not hit:
                continue
            canon = egraph.find(eclass.id)
            if canon in seen:
                continue
            seen.add(canon)
            for subst in _match(egraph, pattern, canon, {}):
                results.append((canon, subst))
                if limit is not None and len(results) >= limit:
                    return results
    else:
        seen = set()
        for eclass in egraph.classes():
            canon = egraph.find(eclass.id)
            if canon in seen:
                continue
            seen.add(canon)
            for subst in _match(egraph, pattern, canon, {}):
                results.append((canon, subst))
                if limit is not None and len(results) >= limit:
                    return results
    return results


def legacy_run_rules(egraph, rules, limits):
    """The seed saturation loop: full re-match + raw (no-op-included) apply."""
    start = time.monotonic()
    for iteration in range(limits.max_iterations):
        version_before = egraph.version
        nodes_before = egraph.num_nodes
        batches = []
        for rule in rules:
            matches = _legacy_search(
                egraph, rule.lhs, limits.max_matches_per_rule
            )
            if matches:
                batches.append((rule, matches))
            if time.monotonic() - start > LEGACY_TIME_LIMIT:
                egraph.rebuild()
                return "time-limit"
        for rule, matches in batches:
            for class_id, subst in matches:
                if egraph.num_nodes >= limits.max_nodes:
                    break
                if rule.condition is not None and not rule.condition(egraph, subst):
                    continue
                new_id = instantiate(egraph, rule.rhs, subst)
                egraph.union(egraph.find(class_id), new_id)
        egraph.rebuild()
        if egraph.num_nodes >= limits.max_nodes:
            return "node-limit"
        if egraph.version == version_before and egraph.num_nodes == nodes_before:
            return "saturated"
        if time.monotonic() - start > LEGACY_TIME_LIMIT:
            return "time-limit"
    return "iteration-limit"


# --- measurement ------------------------------------------------------------------

def saturate(engine, expr, rules, limits):
    """One saturation run; returns (nodes added, elapsed, stop reason)."""
    egraph = EGraph()
    egraph.add_expr(expr)
    base = egraph.num_nodes
    start = time.monotonic()
    if engine == "legacy":
        stop = legacy_run_rules(egraph, rules, limits)
    else:
        stop = run_rules(egraph, rules, limits).stop_reason
    elapsed = time.monotonic() - start
    return egraph.num_nodes - base, elapsed, stop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budget for CI (2 benchmarks, small limits)")
    parser.add_argument("--target", default="c99")
    parser.add_argument("--out", default=str(RESULTS / "egraph_bench.json"))
    args = parser.parse_args(argv)

    target = get_target(args.target)
    rules = _rules_for(target)
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
    engines = ("legacy", "v2")
    rows = []
    totals = {engine: [0, 0.0] for engine in engines}  # nodes, seconds

    for core in cores:
        row = {"benchmark": core.name, "engines": {}}
        for engine in engines:
            nodes, elapsed, stop = saturate(engine, core.body, rules, limits)
            totals[engine][0] += nodes
            totals[engine][1] += elapsed
            row["engines"][engine] = {
                "nodes": nodes,
                "seconds": round(elapsed, 4),
                "nodes_per_sec": round(nodes / elapsed, 1) if elapsed else None,
                "stop": stop,
            }
        rows.append(row)
        print(f"{core.name}: " + "  ".join(
            f"{engine}={row['engines'][engine]['nodes_per_sec']:.0f}n/s"
            for engine in engines
        ))

    summary = {}
    legacy_rate = totals["legacy"][0] / totals["legacy"][1]
    for engine in engines:
        nodes, seconds = totals[engine]
        rate = nodes / seconds if seconds else 0.0
        summary[engine] = {
            "nodes": nodes,
            "seconds": round(seconds, 3),
            "nodes_per_sec": round(rate, 1),
            "speedup_vs_legacy": round(rate / legacy_rate, 2),
        }

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
        "benchmarks": rows,
        "summary": summary,
        "compile_e2e": e2e,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")

    v2 = summary["v2"]
    print(
        f"\nsummary: legacy {summary['legacy']['nodes_per_sec']:.0f} n/s, "
        f"v2 {v2['nodes_per_sec']:.0f} n/s ({v2['speedup_vs_legacy']}x)"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
