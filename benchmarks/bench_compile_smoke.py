"""Compile-latency smoke benchmark feeding the committed perf trajectory.

Like ``bench_egraph.py`` this is a plain script CI runs directly::

    PYTHONPATH=src python benchmarks/bench_compile_smoke.py [--append PATH]

It times a handful of warm-session end-to-end compiles with tracing armed
and reports, per benchmark:

* wall-clock seconds of the root ``compile`` span,
* the per-phase breakdown (parse/sample/transcribe/improve/regimes/score)
  from the same trace,
* **phase coverage** — the fraction of the compile span accounted for by
  phase spans.  The script exits non-zero when coverage drops below 0.9
  for any benchmark: untracked time inside a compile means some new
  subsystem is missing instrumentation.

With ``--append`` (the default points at the repo-root
``BENCH_egraph.json``) the run is recorded in the committed trajectory
file: one entry per commit, keyed by ``git rev-parse HEAD``, carrying the
compile-latency numbers plus the engine-throughput summary from
``results/egraph_bench.json``, the oracle-backend throughput summary
from ``results/oracle_bench.json``, and the narrow-format compile-quality
summary from ``results/format_bench.json`` when ``bench_egraph.py`` /
``bench_oracle.py`` / ``bench_formats.py`` ran first (as they do in CI).  Re-running on the
same commit replaces that commit's entry, so the file stays
one-row-per-commit under amended pushes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.accuracy.sampler import SampleConfig  # noqa: E402
from repro.benchsuite import core_named  # noqa: E402
from repro.core.loop import CompileConfig  # noqa: E402
from repro.obs.trace import Trace, tracing  # noqa: E402
from repro.session import ChassisSession  # noqa: E402
from repro.targets import get_target  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Small, fast benchmarks spanning the interesting compile shapes: a
#: cancellation rewrite, a regime split, and a libm-call replacement.
SAMPLE = ("sqrt-sub", "logistic", "logsumexp2")

#: Minimum fraction of the root compile span the phase spans must cover.
MIN_COVERAGE = 0.9


def git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def git_commit_date() -> str:
    try:
        return subprocess.run(
            ["git", "show", "-s", "--format=%cI", "HEAD"],
            capture_output=True, text=True, cwd=ROOT, timeout=10,
        ).stdout.strip() or ""
    except (OSError, subprocess.SubprocessError):
        return ""


def measure(target_name: str) -> list[dict]:
    """One traced warm-session compile per sample benchmark."""
    target = get_target(target_name)
    rows = []
    with ChassisSession(
        config=CompileConfig(iterations=1, localize_points=8),
        sample_config=SampleConfig(n_train=8, n_test=8),
    ) as session:
        for name in SAMPLE:
            core = core_named(name)
            trace = Trace(name=f"{name}:{target.name}")
            start = time.monotonic()
            with tracing(trace):
                result = session.compile(core, target)
            elapsed = time.monotonic() - start
            roots = trace.find("compile")
            compile_span = roots[0]["dur"] if roots else elapsed
            phases = trace.phase_seconds()
            coverage = (
                sum(phases.values()) / compile_span if compile_span else 0.0
            )
            rows.append({
                "benchmark": name,
                "seconds": round(elapsed, 3),
                "compile_span_seconds": round(compile_span, 3),
                "frontier": len(result.frontier),
                "phases": {k: round(v, 4) for k, v in sorted(phases.items())},
                "phase_coverage": round(coverage, 3),
            })
            slowest = max(phases, key=phases.get) if phases else "?"
            print(
                f"{name}: {elapsed:.2f}s "
                f"(coverage {coverage:.0%}, slowest phase: {slowest})"
            )
    return rows


def validate_trajectory_record(record: dict, require_summaries: bool = True) -> list[str]:
    """Schema-check one trajectory entry; returns the list of problems.

    The trajectory is only useful if every entry is complete: a silently
    appended partial record (an empty engine summary because
    ``bench_egraph.py`` didn't run, a compile row missing its phase
    breakdown) poisons every later comparison against it.  CI therefore
    refuses to append entries with problems.  ``require_summaries=False``
    (the ``--allow-partial`` flag) relaxes only the sub-bench summaries —
    for running the smoke outside CI without the other benches — never
    the compile rows themselves.
    """
    problems: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    check(bool(record.get("commit")), "missing commit hash")
    check(bool(record.get("target")), "missing target name")
    compile_block = record.get("compile")
    if not isinstance(compile_block, dict):
        problems.append("missing compile block")
    else:
        rows = compile_block.get("benchmarks")
        check(
            isinstance(rows, list) and bool(rows),
            "compile.benchmarks must be a non-empty list",
        )
        for row in rows if isinstance(rows, list) else []:
            label = row.get("benchmark", "?") if isinstance(row, dict) else "?"
            check(isinstance(row, dict) and bool(row.get("benchmark")),
                  f"compile row {label!r}: missing benchmark name")
            if not isinstance(row, dict):
                continue
            check(isinstance(row.get("seconds"), (int, float)),
                  f"compile row {label!r}: missing seconds")
            check(isinstance(row.get("phases"), dict) and bool(row["phases"]),
                  f"compile row {label!r}: missing/empty phase breakdown")
            check(isinstance(row.get("phase_coverage"), (int, float)),
                  f"compile row {label!r}: missing phase_coverage")
        check(isinstance(compile_block.get("total_seconds"), (int, float)),
              "compile.total_seconds missing")
        check(isinstance(compile_block.get("min_phase_coverage"), (int, float)),
              "compile.min_phase_coverage missing")
    if require_summaries:
        engine = record.get("engine")
        check(isinstance(engine, dict) and bool(engine.get("summary")),
              "missing/empty engine summary (did bench_egraph.py --smoke run?)")
        oracle = record.get("oracle")
        check(isinstance(oracle, dict) and bool(oracle),
              "missing/empty oracle summary (did bench_oracle.py --smoke run?)")
        if isinstance(oracle, dict) and oracle:
            # Per-rung fractions arrived with the dd middle rung; a
            # summary without them predates the cascade and would make
            # rung-mix regressions invisible in the trajectory.
            for key in (
                "fastpath_fraction",
                "longdouble_fraction",
                "dd_fraction",
                "ladder_fraction",
            ):
                check(isinstance(oracle.get(key), (int, float)),
                      f"oracle summary missing per-rung fraction {key!r}")
        formats = record.get("formats")
        check(isinstance(formats, dict) and bool(formats),
              "missing/empty formats summary (did bench_formats.py run?)")
    return problems


def append_trajectory(path: Path, record: dict) -> None:
    """Insert/replace this commit's entry in the trajectory file."""
    if path.exists():
        trajectory = json.loads(path.read_text())
        if not isinstance(trajectory, dict) or not isinstance(
            trajectory.get("runs"), list
        ):
            raise ValueError(
                f"{path} is not a trajectory file (expected an object with "
                "a 'runs' list); refusing to overwrite it"
            )
    else:
        trajectory = {
            "description": (
                "Per-commit performance trajectory: compile-latency smoke "
                "(benchmarks/bench_compile_smoke.py) plus the e-graph "
                "engine-throughput summary (benchmarks/bench_egraph.py "
                "--smoke), the oracle-backend throughput summary "
                "(benchmarks/bench_oracle.py --smoke), and the "
                "narrow-format fp16/bf16 compile-quality summary "
                "(benchmarks/bench_formats.py).  Appended by CI; "
                "one entry per commit."
            ),
            "runs": [],
        }
    runs = [r for r in trajectory.get("runs", []) if r.get("commit") != record["commit"]]
    runs.append(record)
    trajectory["runs"] = runs
    path.write_text(json.dumps(trajectory, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", default="c99")
    parser.add_argument(
        "--append",
        default=str(ROOT / "BENCH_egraph.json"),
        help="trajectory file to record this commit's numbers in "
        "('' disables appending)",
    )
    parser.add_argument(
        "--engine-results",
        default=str(ROOT / "results" / "egraph_bench.json"),
        help="bench_egraph.py output to fold into the trajectory entry",
    )
    parser.add_argument(
        "--oracle-results",
        default=str(ROOT / "results" / "oracle_bench.json"),
        help="bench_oracle.py output to fold into the trajectory entry",
    )
    parser.add_argument(
        "--format-results",
        default=str(ROOT / "results" / "format_bench.json"),
        help="bench_formats.py output to fold into the trajectory entry",
    )
    parser.add_argument(
        "--allow-partial",
        action="store_true",
        help="append even when sub-bench summaries (engine/oracle/formats) "
        "are absent — for local runs without the other benches; the "
        "compile rows themselves are always validated",
    )
    args = parser.parse_args(argv)

    rows = measure(args.target)
    total = sum(row["seconds"] for row in rows)
    worst = min(row["phase_coverage"] for row in rows)
    print(f"\ntotal {total:.2f}s over {len(rows)} compiles, "
          f"min phase coverage {worst:.0%}")

    engine_summary = None
    engine_path = Path(args.engine_results)
    if engine_path.exists():
        engine_payload = json.loads(engine_path.read_text())
        engine_summary = {"summary": engine_payload.get("summary")}

    oracle_summary = None
    oracle_path = Path(args.oracle_results)
    if oracle_path.exists():
        oracle_payload = json.loads(oracle_path.read_text())
        oracle_summary = oracle_payload.get("summary")

    # Per-format compile quality (bench_formats.py): keep only the compact
    # per-format summaries, not the per-benchmark rows.
    format_summary = None
    format_path = Path(args.format_results)
    if format_path.exists():
        format_payload = json.loads(format_path.read_text())
        format_summary = {
            name: {
                "mean_best_error_bits": data.get("mean_best_error_bits"),
                "all_validated": data.get("all_validated"),
            }
            for name, data in format_payload.get("formats", {}).items()
        }

    if args.append:
        record = {
            "commit": git_head(),
            "date": git_commit_date(),
            "target": args.target,
            "compile": {
                "benchmarks": rows,
                "total_seconds": round(total, 3),
                "min_phase_coverage": worst,
            },
            "engine": engine_summary,
            "oracle": oracle_summary,
            "formats": format_summary,
        }
        # Validate BEFORE appending: a partial entry must never reach the
        # committed trajectory, where it would silently poison every later
        # per-commit comparison.
        problems = validate_trajectory_record(
            record, require_summaries=not args.allow_partial
        )
        if problems:
            for problem in problems:
                print(f"TRAJECTORY SCHEMA: {problem}", file=sys.stderr)
            print(
                "FAIL: refusing to append a partial trajectory entry "
                "(--allow-partial skips only the sub-bench summary checks)",
                file=sys.stderr,
            )
            return 1
        path = Path(args.append)
        append_trajectory(path, record)
        print(f"recorded commit {record['commit'][:12]} in {path}")

    if worst < MIN_COVERAGE:
        print(
            f"FAIL: phase spans cover only {worst:.0%} of the compile span "
            f"(minimum {MIN_COVERAGE:.0%}) — a compile stage is missing "
            "span instrumentation",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
