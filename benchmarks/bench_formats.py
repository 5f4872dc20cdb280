"""Narrow-format (fp16/bf16) end-to-end regression leg.

CI runs this directly::

    PYTHONPATH=src python benchmarks/bench_formats.py

For each registered ML format target (``fp16``, ``bf16``) it takes a small
benchsuite sample, retunes each core's ``:precision`` to the format, and
runs the whole pipeline: compile (sample -> oracle -> score) -> emit
Python -> execute under the sandboxed backend -> cross-check the executed
outputs against the oracle (``session.validate``).  Three gates:

* every compile must produce a non-empty frontier,
* every validation must agree (executed-vs-machine within the half-bit
  acceptance threshold),
* the best frontier **score** (bits of error) per (format, benchmark) must
  not regress beyond ``TOLERANCE_BITS`` against the committed baseline in
  ``benchmarks/data/format_baseline.json``.

The run summary is written to ``results/format_bench.json`` (a CI
artifact).  Regenerate the baseline after an *intentional* accuracy
change with ``--update-baseline``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.accuracy.sampler import SampleConfig  # noqa: E402
from repro.benchsuite import core_named  # noqa: E402
from repro.core.loop import CompileConfig  # noqa: E402
from repro.session import ChassisSession  # noqa: E402
from repro.targets import get_target  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = ROOT / "benchmarks" / "data" / "format_baseline.json"
RESULTS_PATH = ROOT / "results" / "format_bench.json"

#: The narrow-format targets under regression watch.
FORMATS = ("fp16", "bf16")

#: Small benchsuite sample whose operators all exist on the ML targets
#: (arithmetic, sqrt, exp/log — the accelerator SFU menu).
SAMPLE = ("sqrt-sub", "logistic", "logsumexp2")

#: Allowed worsening of best-frontier bits-of-error vs the baseline.
TOLERANCE_BITS = 0.25

CONFIG = CompileConfig(iterations=1, localize_points=8)
SAMPLES = SampleConfig(n_train=32, n_test=32)


def run_formats() -> dict:
    """Compile + validate the sample at every narrow format."""
    per_format: dict[str, dict] = {}
    with ChassisSession(config=CONFIG, sample_config=SAMPLES) as session:
        for fmt_name in FORMATS:
            target = get_target(fmt_name)
            rows = []
            for bench in SAMPLE:
                core = dataclasses.replace(
                    core_named(bench), precision=fmt_name
                )
                result = session.compile(core, target)
                best = result.frontier.best_error()
                report = session.validate(core, target, backend="python")
                rows.append({
                    "benchmark": bench,
                    "frontier": len(result.frontier),
                    "best_error_bits": round(best.error, 4),
                    "executed_bits": round(report.executed_bits, 4),
                    "agreement_bits": round(report.agreement_bits, 4),
                    "validated": report.ok,
                })
                status = "ok" if report.ok else "DISAGREE"
                print(
                    f"{fmt_name}/{bench}: {best.error:.3f} bits of error, "
                    f"executed {report.executed_bits:.3f}, "
                    f"validation {status}"
                )
            per_format[fmt_name] = {
                "benchmarks": rows,
                "mean_best_error_bits": round(
                    sum(r["best_error_bits"] for r in rows) / len(rows), 4
                ),
                "all_validated": all(r["validated"] for r in rows),
            }
    return per_format


def check_against_baseline(per_format: dict) -> list[str]:
    """Score-regression failures vs the committed baseline (empty = green)."""
    if not BASELINE_PATH.exists():
        return [f"missing committed baseline {BASELINE_PATH}"]
    baseline = json.loads(BASELINE_PATH.read_text())["formats"]
    failures = []
    for fmt_name, summary in per_format.items():
        base_rows = {
            r["benchmark"]: r for r in baseline.get(fmt_name, {}).get("benchmarks", [])
        }
        for row in summary["benchmarks"]:
            base = base_rows.get(row["benchmark"])
            if base is None:
                failures.append(
                    f"{fmt_name}/{row['benchmark']}: no baseline entry "
                    f"(run --update-baseline)"
                )
                continue
            drift = row["best_error_bits"] - base["best_error_bits"]
            if drift > TOLERANCE_BITS:
                failures.append(
                    f"{fmt_name}/{row['benchmark']}: score regressed "
                    f"{base['best_error_bits']:.3f} -> "
                    f"{row['best_error_bits']:.3f} bits "
                    f"(+{drift:.3f} > {TOLERANCE_BITS})"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the committed baseline from this run's scores",
    )
    parser.add_argument(
        "--results",
        default=str(RESULTS_PATH),
        help="where to write the run summary ('' disables)",
    )
    args = parser.parse_args(argv)

    per_format = run_formats()
    payload = {
        "description": "Narrow-format (fp16/bf16) end-to-end regression run.",
        "sample": list(SAMPLE),
        "tolerance_bits": TOLERANCE_BITS,
        "formats": per_format,
    }

    if args.results:
        results = Path(args.results)
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {results}")

    if args.update_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"updated baseline {BASELINE_PATH}")
        return 0

    not_validated = [
        f"{fmt}/{r['benchmark']}: executed code disagrees with the machine "
        f"score by {r['agreement_bits']} bits"
        for fmt, summary in per_format.items()
        for r in summary["benchmarks"]
        if not r["validated"]
    ]
    failures = not_validated + check_against_baseline(per_format)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("format regression leg green")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
