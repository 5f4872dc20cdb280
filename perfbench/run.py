"""The repository benchmark: compile, score, serve and batch workloads.

Run one workload (what ``BENCHMARK.json`` names as the command; the
manifest lists ``serve`` and ``batch``, see ``spec.py``)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  The lines before it print every end-to-end metric by name
and unit, ``n/a`` where one does not apply to the workload.  Each run also
appends its record, stamped with the host, the platform's ``longdouble``
width, the commit and the seed, to ``perfbench/results/runs.jsonl``
(``--out`` picks another file).

Run every workload, ``--repeat`` times each with seeds 1, 2, ...::

    python3 perfbench/run.py --all --repeat 10 --out base.jsonl

Compare two such files, per workload and metric, median and quartiles
against the metric's bound::

    python3 perfbench/run.py --compare base.jsonl change.jsonl

Regenerate ``BENCHMARK.json`` from ``spec.py``::

    python3 perfbench/run.py --write-manifest

The benchmark builds nothing: it imports the package from ``src/`` of the
checkout it sits in, and exits with status 2 when there is none.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

from spec import (  # noqa: E402
    END_TO_END, HELD_OUT_SEED, PER_LAYER, RUN_SECONDS, WORKLOADS, manifest,
)


# --- stamping ----------------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_stamp() -> dict:
    """Where and on what a result was measured.  ``score`` numbers depend
    on the ``longdouble`` width: 63 stored mantissa bits (80-bit extended)
    on x86-64, 112 (quad) on aarch64 Linux, 52 where it is a plain double."""
    import numpy as np
    from repro.provenance.ledger import host_info
    from repro.rival.backends import resolve_backend_name

    return {
        "host": host_info(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "oracle_backend": resolve_backend_name(None),
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
        "source_digest": _source_digest(),
    }


# --- one workload ------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path) -> int:
    scratch = RESULTS / "tmp" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # Temporary files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    try:
        import workloads

        runner = workloads.RUNNERS[name]
        extra = {"scratch": scratch} if name == "serve" else {}
        run = runner(seed, seconds, trace, **extra)
        stamp = environment_stamp()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = PER_LAYER if trace else [m for m in END_TO_END if not m.report_only]
    failed = len(run.failures)
    metrics = dict(run.metrics)
    if not trace:
        metrics["failed_frac"] = failed / run.attempted if run.attempted else 1.0
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "held_out_seed": HELD_OUT_SEED, "stamp": stamp,
        "attempted": run.attempted, "failed": failed, "failures": run.failures,
        "metrics": metrics, "detail": run.detail,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as handle:
        handle.write(json.dumps(record) + "\n")

    for failure in run.failures:
        print(f"FAILED {failure}")
    shown = PER_LAYER if trace else END_TO_END
    for metric in shown:
        print(f"{name:8s} {metric.name:32s} {_fmt(metrics.get(metric.name)):>12s} {metric.unit}")
    missing = [m.name for m in wanted if not isinstance(metrics.get(m.name), (int, float))]
    if missing:
        print(f"no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit} for m in wanted
        },
    }))
    return 0


# --- every workload ------------------------------------------------------------------


def run_all(repeat: int, seconds: float, trace: bool, out: Path) -> int:
    """Each workload in its own process, ``repeat`` times; then a table of
    every end-to-end metric's median per workload."""
    status = 0
    for seed in range(1, repeat + 1):
        for name in WORKLOADS:
            command = [
                sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace)), "--out", str(out),
            ]
            result = subprocess.run(command, stdout=subprocess.DEVNULL)
            status = status or result.returncode
    records = _load(out)
    print(f"{'metric':18s} {'unit':6s}" + "".join(f"{name:>12s}" for name in WORKLOADS))
    for metric in (PER_LAYER if trace else END_TO_END):
        cells = []
        for name in WORKLOADS:
            values = [
                r["metrics"].get(metric.name) for r in records
                if r["workload"] == name and r["trace"] == int(trace)
            ]
            values = [v for v in values if v is not None]
            cells.append(_fmt(statistics.median(values)) if values else "n/a")
        print(f"{metric.name:18s} {metric.unit:6s}" + "".join(f"{c:>12s}" for c in cells))
    return status


# --- compare -------------------------------------------------------------------------


def _load(path: Path) -> list[dict]:
    with path.open() as handle:
        return [json.loads(line) for line in handle if line.strip()]


#: Stamp fields that must agree for two result files to be comparable.
_SAME_HOST = ("nproc", "machine", "longdouble_mantissa_bits")


def _host_key(record: dict) -> tuple:
    stamp = record["stamp"]
    return (
        stamp["host"]["hostname"], stamp["host"]["platform"],
        stamp["host"]["python"], *(stamp[key] for key in _SAME_HOST),
    )


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric.

    A change is worse when its median is worse than the base median by
    more than ``bound`` (a share of the base median).  It is better when
    its median is better by more than the base's own quartile spread and
    it wins at least nine in ten of the seed-paired runs.  When the base
    spread exceeds the bound, only a clean separation (every run of one
    side beyond every run of the other) decides; otherwise it is
    unresolved.
    """
    sign = 1.0 if better == "higher" else -1.0
    mid_base, mid_change = statistics.median(base), statistics.median(change)
    scale = abs(mid_base) or 1.0
    gain = sign * (mid_change - mid_base) / scale
    spread = _iqr(base) / scale
    if spread > bound:
        if min(sign * c for c in change) > max(sign * b for b in base):
            return "better"
        if max(sign * c for c in change) < min(sign * b for b in base):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if gain > spread and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{_fmt(values[0])}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{_fmt(q2)} [{_fmt(q1)}, {_fmt(q3)}]"


def compare(base_path: Path, change_path: Path) -> int:
    base, change = _load(base_path), _load(change_path)
    hosts = {_host_key(r) for r in base + change}
    if len(hosts) > 1:
        print(f"refusing to compare results from different hosts or platforms: {sorted(hosts)}",
              file=sys.stderr)
        return 2
    print(f"{'workload':8s} {'metric':18s} {'bound':>6s}  {'base median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} verdict")
    for name in WORKLOADS:
        for metric in END_TO_END:
            series = []
            for records in (base, change):
                runs = sorted(
                    (r for r in records if r["workload"] == name and r["trace"] == 0),
                    key=lambda r: r["seed"],
                )
                series.append([
                    r["metrics"][metric.name] for r in runs
                    if r["metrics"].get(metric.name) is not None
                ])
            if not series[0] or not series[1]:
                continue
            print(
                f"{name:8s} {metric.name:18s} {metric.bound:6.2f}  "
                f"{_quartiles(series[0]):34s} {_quartiles(series[1]):34s} "
                f"{verdict(series[0], series[1], metric.better, metric.bound)}"
            )
    return 0


# --- entry point ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=RESULTS / "runs.jsonl")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload with --all")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "CHANGE"))
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.repeat, args.seconds, bool(args.trace), args.out)
    if args.workload is None:
        parser.error("one of --workload, --all, --compare or --write-manifest is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
