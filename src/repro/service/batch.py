"""``repro batch``: batched, parallel, cached compilation from the CLI.

Selects benchmarks (a file, named benchmarks, or a slice of the built-in
suite) and targets, fans the cross product through a
:class:`~repro.session.ChassisSession`'s ``compile_many``, prints a per-job
progress line plus cache statistics, and optionally writes a JSONL report.

Report lines deliberately exclude wall-clock times and cache flags so that
``--jobs 1`` and ``--jobs N`` runs — and cold and warm runs — produce
byte-identical reports (the determinism contract the tests pin down).
"""

from __future__ import annotations

import json
import sys

from ..accuracy.sampler import SampleConfig
from ..benchsuite import suite
from ..core.loop import CompileConfig
from ..ir.fpcore import FPCore
from ..targets import TARGET_NAMES
from .scheduler import JobOutcome


def select_cores(args) -> list[FPCore]:
    """Resolve the benchmark selection flags into a list of FPCores."""
    if args.input:
        from ..cli import _read_cores

        cores: list[FPCore] = []
        for name_or_path in args.input:
            cores.extend(_read_cores(name_or_path))
        return cores
    return suite(max_benchmarks=args.suite)


def select_targets(args) -> list[str]:
    """Resolve --targets into registry names (validated here, built later)."""
    names = [t.strip() for t in args.targets.split(",") if t.strip()]
    for name in names:
        if name not in TARGET_NAMES:
            raise SystemExit(
                f"unknown target {name!r}; available: {', '.join(TARGET_NAMES)}"
            )
    return names


def job_row(
    benchmark: str,
    target: str,
    status: str,
    *,
    fingerprint: str | None = None,
    error_type: str = "",
    error: str = "",
    payload: dict | None = None,
) -> dict:
    """The one ok/failed JSON row shape for machine-readable output.

    Shared by the batch report writer, ``repro compile --json`` and the
    serve front-end's batch endpoint, so their rows are joinable and can't
    drift apart.  Deliberately excludes wall-clock times and cache flags so
    cold and warm (and serial and parallel) runs emit identical rows.
    """
    row = {"benchmark": benchmark, "target": target}
    if fingerprint is not None:
        row["fingerprint"] = fingerprint
    row["status"] = status
    if status != "ok":
        row["error_type"] = error_type
        row["error"] = error
        return row
    payload = payload or {}
    row["input"] = _entry(payload.get("input", {}))
    row["frontier"] = [_entry(c) for c in payload.get("frontier", [])]
    return row


def report_line(outcome: JobOutcome) -> dict:
    """One deterministic JSONL report row (no timings, no cache flags)."""
    return job_row(
        outcome.benchmark,
        outcome.target,
        outcome.status,
        fingerprint=outcome.fingerprint,
        error_type=outcome.error_type,
        error=outcome.error,
        payload=outcome.payload,
    )


def _entry(candidate: dict) -> dict:
    return {
        "program": candidate.get("program", ""),
        "cost": candidate.get("cost", 0.0),
        "error": candidate.get("error", 0.0),
        "origin": candidate.get("origin", ""),
    }


def cmd_batch(args) -> int:
    """Entry point for the ``repro batch`` subcommand."""
    cores = select_cores(args)
    target_names = select_targets(args)
    if not cores or not target_names:
        raise SystemExit("nothing to compile: empty benchmark or target selection")

    from ..session import ChassisSession

    session = ChassisSession(
        config=CompileConfig(iterations=args.iterations),
        sample_config=SampleConfig(
            n_train=args.points, n_test=args.points, seed=args.seed
        ),
        cache=args.cache_dir or None,
        jobs=args.jobs,
        timeout=args.timeout,
    )

    # Target-major order; the engine draws each benchmark's samples once
    # for all of its targets that miss the cache.
    specs = [(core, name) for name in target_names for core in cores]

    def progress(outcome: JobOutcome) -> None:
        if not args.quiet:
            status = outcome.status
            note = "" if outcome.ok else f" ({outcome.error_type})"
            timing = "cached" if outcome.cached else f"{outcome.elapsed:.1f}s"
            print(
                f"  {outcome.benchmark} on {outcome.target}: "
                f"{status}{note} [{timing}]",
                file=sys.stderr,
            )

    print(
        f"batch: {len(specs)} jobs "
        f"({len(cores)} benchmarks x {len(target_names)} targets, "
        f"--jobs {args.jobs})",
        file=sys.stderr,
    )
    outcomes = session.compile_many(specs, progress=progress)
    session.close()  # drain the persistent worker pool (if one was built)

    counts = {"ok": 0, "failed": 0, "timeout": 0}
    compiled = cached = 0
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
        if outcome.cached:
            cached += 1
        elif outcome.ok:
            compiled += 1

    if args.report:
        with open(args.report, "w") as handle:
            for outcome in outcomes:
                handle.write(json.dumps(report_line(outcome)) + "\n")
        print(f"report: {args.report} ({len(outcomes)} lines)", file=sys.stderr)

    summary = (
        f"ok={counts['ok']} failed={counts['failed']} "
        f"timeout={counts['timeout']} compiled={compiled} cached={cached}"
    )
    print(summary)
    if session.cache is not None:
        print(f"cache: {session.cache.stats}")
    # Per-job failures are data (the paper's removal protocol), but a batch
    # where *nothing* succeeded is an operational failure.
    return 0 if counts["ok"] else 1
