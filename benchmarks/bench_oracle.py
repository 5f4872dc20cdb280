"""Oracle-backend throughput benchmark (standalone).

A plain script CI runs directly::

    PYTHONPATH=src python benchmarks/bench_oracle.py [--smoke] [--out PATH]

It measures batched ground-truth evaluation over benchsuite sample sets —
the oracle-bound inner loop of sampling — for two backends:

* ``mpmath`` — the reference path: every point climbs the escalation ladder
  alone (libmp interval arithmetic at 80 to 1280 bits).
* ``numpy``  — the vectorized fast path: one outward-rounded
  double-double interval sweep over the whole point set, with only the
  unsettled residue escalating to the same ladder.

For every benchmark the script first verifies the *bit-identity*
contract: ``sample_core`` under each backend must produce byte-identical
points, exact values and acceptance ratios (fast paths are acceptance
filters, never approximations).  Any divergence is a correctness bug and
the script exits non-zero.

Reported throughput is oracle points per second of ``eval_batch`` over
the benchmark's own sampled (precondition-respecting) points, plus the
fraction of points the fast path settled without touching the ladder.
Results land in ``results/oracle_bench.json`` (a CI artifact).
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.accuracy.sampler import SampleConfig, sample_core  # noqa: E402
from repro.benchsuite import core_named  # noqa: E402
from repro.rival.backends import make_backend  # noqa: E402
from repro.rival.eval import RivalEvaluator  # noqa: E402

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Benchmarks spanning the oracle-relevant shapes: pure cancellation
#: (settles on the fast path), transcendental-heavy bodies, fabs-bounded
#: domains, and multi-variable quadratics with real domain errors.
SAMPLE = (
    "sqrt-sub", "cos-frac", "sin-frac", "acoth", "quadratic-mod",
    "logsumexp2", "logistic", "gauss-kernel", "slerp-weight",
    "ellipse-angle",
)


def _fresh(name: str):
    return make_backend(name, evaluator=RivalEvaluator())


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _sample_key(samples) -> tuple:
    """Bit-exact identity of one SampleSet."""
    points = tuple(
        tuple(sorted((k, _bits(v)) for k, v in point.items()))
        for point in samples.train + samples.test
    )
    exacts = tuple(_bits(v) for v in samples.train_exact + samples.test_exact)
    return (points, exacts, samples.acceptance, len(samples.train))


def bench_benchmark(name: str, n_points: int, repeats: int) -> dict:
    """Identity check + throughput for one benchmark."""
    core = core_named(name)
    config = SampleConfig(n_train=n_points, n_test=n_points)

    reference = sample_core(core, config, oracle=_fresh("mpmath"))
    fast = sample_core(core, config, oracle=_fresh("numpy"))
    identical = _sample_key(fast) == _sample_key(reference)

    points = reference.train + reference.test
    throughput: dict[str, float] = {}
    rungs = {"dd": 0.0, "ladder": 0.0}
    fastpath_fraction = 0.0
    for backend_name in ("mpmath", "numpy"):
        backend = _fresh(backend_name)
        backend.eval_batch(core.body, points, core.precision)  # warm-up
        start = time.perf_counter()
        for _ in range(repeats):
            backend.eval_batch(core.body, points, core.precision)
        elapsed = time.perf_counter() - start
        throughput[backend_name] = len(points) * repeats / max(elapsed, 1e-9)
        if backend_name == "numpy":
            counters = backend.counters()
            total = max(1, counters.batch_points)
            fastpath_fraction = counters.fastpath_hits / total
            rungs["dd"] = counters.dd_hits / total
            rungs["ladder"] = counters.escalated_points / total

    speedup = throughput["numpy"] / max(throughput["mpmath"], 1e-9)
    return {
        "benchmark": name,
        "points": len(points),
        "identical": identical,
        "mpmath_points_per_s": round(throughput["mpmath"], 1),
        "numpy_points_per_s": round(throughput["numpy"], 1),
        "speedup": round(speedup, 2),
        "fastpath_fraction": round(fastpath_fraction, 4),
        "dd_fraction": round(rungs["dd"], 4),
        "ladder_fraction": round(rungs["ladder"], 4),
    }


#: Regression gates: the dd rung must keep at least this fraction of all
#: points off the ladder, and the dd rung must keep settling the
#: cancellation-heavy cos-frac core (the round-2 motivating case).
FASTPATH_GATE = 0.95
COS_FRAC_GATE = 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller point sets and fewer repeats (CI budget)",
    )
    parser.add_argument("--out", default=str(RESULTS / "oracle_bench.json"))
    args = parser.parse_args(argv)

    n_points = 64 if args.smoke else 256
    repeats = 3 if args.smoke else 10

    rows = []
    for name in SAMPLE:
        row = bench_benchmark(name, n_points, repeats)
        rows.append(row)
        marker = "" if row["identical"] else "  ** MISMATCH **"
        print(
            f"{name}: {row['speedup']:.1f}x "
            f"({row['mpmath_points_per_s']:.0f} -> "
            f"{row['numpy_points_per_s']:.0f} points/s, "
            f"fastpath {row['fastpath_fraction']:.0%}, "
            f"dd {row['dd_fraction']:.0%}){marker}"
        )

    speedups = [row["speedup"] for row in rows]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    all_identical = all(row["identical"] for row in rows)

    def _mean(key: str) -> float:
        return round(sum(row[key] for row in rows) / len(rows), 4)

    summary = {
        "geomean_speedup": round(geomean, 2),
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "fastpath_fraction": _mean("fastpath_fraction"),
        "dd_fraction": _mean("dd_fraction"),
        "ladder_fraction": _mean("ladder_fraction"),
        "identical": all_identical,
    }
    print(
        f"\ngeomean speedup {geomean:.1f}x over "
        f"{len(rows)} benchmarks "
        f"(min {summary['min_speedup']:.1f}x, "
        f"max {summary['max_speedup']:.1f}x); "
        f"fastpath {summary['fastpath_fraction']:.1%}"
    )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "mode": "smoke" if args.smoke else "full",
        "benchmarks": rows,
        "summary": summary,
    }, indent=2) + "\n")
    print(f"wrote {out}")

    failures = []
    if not all_identical:
        bad = [row["benchmark"] for row in rows if not row["identical"]]
        failures.append(
            f"backends disagree on {', '.join(bad)} — fast paths must be "
            "bit-identical acceptance filters"
        )
    if summary["fastpath_fraction"] <= FASTPATH_GATE:
        failures.append(
            f"fastpath fraction {summary['fastpath_fraction']:.4f} "
            f"regressed below the {FASTPATH_GATE} gate"
        )
    cos_frac = next(r for r in rows if r["benchmark"] == "cos-frac")
    if cos_frac["fastpath_fraction"] <= COS_FRAC_GATE:
        failures.append(
            f"cos-frac fastpath {cos_frac['fastpath_fraction']:.4f} "
            f"regressed below the {COS_FRAC_GATE} gate (dd cancellation "
            "kernels are not settling)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
