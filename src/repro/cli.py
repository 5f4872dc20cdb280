"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``compile`` — compile FPCore source for a target, print the Pareto
  frontier (optionally as target-language code or ``--json``).
* ``batch``  — compile many benchmarks x targets through the batch
  service: parallel workers, persistent result cache, JSONL report.
* ``serve``  — long-running JSON-over-HTTP front-end backed by one warm
  :class:`~repro.session.ChassisSession` (compile/batch/targets/score).
* ``targets`` — list the built-in target descriptions (the figure 6 table);
  ``--json`` adds per-target execution capability metadata.
* ``sample`` — sample valid inputs for an FPCore and report acceptance.
* ``score``  — score a float program's accuracy against the oracle.
* ``run``    — compile, then *execute* the emitted code (C via the system
  compiler, or the sandboxed Python backend) at the sampled points.
* ``validate`` — run emitted code and cross-check it against the Rival
  oracle and the fpeval machine (empirical accuracy report).
* ``health`` — human-readable session/engine/oracle stats table, from a
  running server's ``/health`` + ``/metrics`` (``--url``) or a fresh
  in-process session.

Every command that compiles goes through a :class:`ChassisSession`, so one
invocation shares its evaluator, sample cache and (optional) persistent
result cache across all its benchmarks.

Examples::

    python -m repro targets
    python -m repro compile --target fdlibm --iterations 2 bench.fpcore
    echo '(FPCore (x) :pre (< 0.001 x 0.999) (log (+ 1 x)))' | \
        python -m repro compile --target c99 -
    python -m repro batch --suite 8 --targets c99,fdlibm --jobs 4 \
        --cache-dir .repro-cache --report report.jsonl
    python -m repro serve --port 8080 --cache-dir .repro-cache
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .accuracy.sampler import SampleConfig
from .benchsuite import core_named
from .core.loop import CompileConfig
from .core.output import render, to_fpcore
from .experiments.report import targets_table
from .formats import UnknownFormatError
from .ir.fpcore import parse_fpcores
from .ir.printer import expr_to_infix
from .session import ChassisSession
from .targets import TARGET_NAMES, all_targets, get_target


def _read_cores(source: str, known_ops=None):
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source) as handle:
                text = handle.read()
        except OSError:  # not a readable file: try as a benchmark name
            try:
                return [core_named(source)]
            except KeyError:
                from .benchsuite import suite_names

                known = ", ".join(suite_names()[:8])
                raise SystemExit(
                    f"no such file or benchmark: {source} "
                    f"(suite starts: {known}, ...)"
                ) from None
    try:
        return parse_fpcores(text, known_ops)
    except UnknownFormatError as error:
        # A bad :precision is a user typo, not a crash: name the format and
        # the registered alternatives instead of dumping a traceback.
        raise SystemExit(f"error: {error}") from None


def _cmd_targets(args) -> int:
    if getattr(args, "json", False):
        from .session import targets_info

        print(json.dumps({"targets": targets_info()}, indent=2))
        return 0
    print(targets_table(all_targets()), end="")
    return 0


def _resolve_target(args):
    """Resolve --target / --target-file into a Target."""
    if getattr(args, "target_file", None):
        from .fpeval import approx, impls
        from .targets import autotuned, parse_target_description

        links = {
            name: fn
            for module in (impls, approx)
            for name, fn in vars(module).items()
            if callable(fn) and not name.startswith("_")
        }
        import_registry = {name: get_target(name) for name in TARGET_NAMES}
        with open(args.target_file) as handle:
            target = parse_target_description(
                handle.read(), link_registry=links, import_registry=import_registry
            )
        return autotuned(target)
    return get_target(args.target)


def _cmd_compile(args) -> int:
    from .service.batch import job_row

    target = _resolve_target(args)
    session = ChassisSession(
        config=CompileConfig(iterations=args.iterations),
        sample_config=SampleConfig(
            n_train=args.points, n_test=args.points, seed=args.seed
        ),
        jobs=args.jobs,
    )

    def emit_failed(label: str, error_type: str, error: str) -> None:
        if args.json:
            print(json.dumps(job_row(
                label, target.name, "failed",
                error_type=error_type, error=error,
            )))
        else:
            print(f"{label}: FAILED ({error_type}: {error})")

    def emit_ok(label, core, result, elapsed, engine_delta, timings) -> None:
        if args.json:
            from .service.results import result_to_dict

            # The same deterministic row shape the batch report writer emits
            # (joinable on "benchmark"/"target", no bulky fields), plus this
            # job's engine-counter delta — e-nodes built, rule searches,
            # stop reasons and per-rule match-budget truncations
            # (`rules_truncated`) — and its
            # per-phase wall-clock breakdown, the observability hooks for
            # tuning node/match budgets and finding the slow phase.
            row = job_row(
                label, target.name, "ok", payload=result_to_dict(result)
            )
            row["engine"] = engine_delta
            row["timings"] = timings
            print(json.dumps(row))
            return
        print(f"{label} on {target.name} ({elapsed:.1f}s):")
        inp = result.input_candidate
        print(f"  input  cost={inp.cost:9.1f}  bits-of-error={inp.error:6.2f}")
        for candidate in result.frontier:
            print(
                f"  output cost={candidate.cost:9.1f}  "
                f"bits-of-error={candidate.error:6.2f}"
            )
            if args.code:
                body = render(candidate.program, core, target)
                print("    " + "\n    ".join(body.splitlines()))
            else:
                shown = (
                    expr_to_infix(candidate.program)
                    if args.infix
                    else to_fpcore(candidate.program, core)
                )
                print(f"    {shown}")

    cores = _read_cores(args.input)
    traces: list = []
    status = 0
    if args.jobs > 1:
        from .obs.trace import trace_from_dict

        # Pooled path: benchmarks fan out across warm worker processes.
        # Each worker records its own span trace and engine counters and
        # ships them back on the JobOutcome; --trace merges every worker's
        # spans onto one absolute timeline below.
        outcomes = session.compile_many(
            [(core, target) for core in cores], trace=bool(args.trace)
        )
        for core, outcome in zip(cores, outcomes):
            label = core.name or core.properties.get("name", "<anonymous>")
            if outcome.trace:
                traces.append(outcome.trace)
            if not outcome.ok:
                emit_failed(
                    label, outcome.error_type or outcome.status, outcome.error
                )
                status = 1
                continue
            timings = (
                trace_from_dict(outcome.trace).phase_seconds()
                if outcome.trace else None
            )
            emit_ok(
                label, core, outcome.result, outcome.elapsed,
                outcome.engine or {}, timings,
            )
    else:
        from .egraph.stats import stats_delta
        from .obs.trace import Trace, tracing

        for core in cores:
            label = core.name or core.properties.get("name", "<anonymous>")
            start = time.monotonic()
            engine_before = session.stats.engine.as_dict()
            trace = Trace(name=f"{label}:{target.name}") if args.trace else None
            try:
                if trace is not None:
                    with tracing(trace):
                        result = session.compile(core, target)
                else:
                    result = session.compile(core, target)
            except Exception as error:  # surface per-core failures, keep going
                emit_failed(label, type(error).__name__, str(error))
                status = 1
                continue
            if trace is not None:
                traces.append(trace)
            emit_ok(
                label, core, result, time.monotonic() - start,
                stats_delta(session.stats.engine.as_dict(), engine_before),
                session.last_phase_timings(),
            )
    if args.trace:
        from .obs.trace import write_chrome_trace

        events = write_chrome_trace(args.trace, traces)
        print(
            f"wrote {events} trace events from {len(traces)} compile(s) "
            f"to {args.trace} (load in Perfetto / chrome://tracing)",
            file=sys.stderr,
        )
    session.close()
    return status


def _cmd_batch(args) -> int:
    from .service.batch import cmd_batch

    return cmd_batch(args)


def _cmd_sample(args) -> int:
    session = ChassisSession(
        sample_config=SampleConfig(
            n_train=args.points, n_test=args.points, seed=args.seed
        )
    )
    for core in _read_cores(args.input):
        samples = session.samples_for(core)
        label = core.name or "<anonymous>"
        print(
            f"{label}: {len(samples.train)} train + {len(samples.test)} test "
            f"points (acceptance {samples.acceptance:.1%})"
        )
        if args.show:
            for point, exact in list(zip(samples.train, samples.train_exact))[: args.show]:
                rendered = ", ".join(f"{k}={v:.6g}" for k, v in point.items())
                print(f"  {rendered}  ->  {exact:.17g}")
    return 0


def _cmd_score(args) -> int:
    session = ChassisSession(
        sample_config=SampleConfig(n_train=8, n_test=args.points)
    )
    target = get_target(args.target)
    for core in _read_cores(args.input):
        error = session.score(core, target, args.program or None)
        print(f"{core.name or '<anonymous>'}: mean bits of error = {error:.3f}")
    return 0


def _exec_session(args) -> ChassisSession:
    """The session behind ``repro run`` / ``repro validate``."""
    return ChassisSession(
        config=CompileConfig(iterations=args.iterations),
        sample_config=SampleConfig(
            n_train=args.points, n_test=args.points, seed=args.seed
        ),
        cache=getattr(args, "cache_dir", None) or None,
    )


def _cmd_run(args) -> int:
    """Compile and *execute* emitted code at the sampled points."""
    session = _exec_session(args)
    status = 0
    for core in _read_cores(args.input):
        label = core.name or core.properties.get("name", "<anonymous>")
        try:
            run = session.execute(
                core, args.target, program=args.program or None,
                backend=args.backend,
            )
            samples = session.samples_for(core)
        except Exception as error:
            print(f"{label}: FAILED ({type(error).__name__}: {error})")
            status = 1
            continue
        if args.json:
            print(json.dumps(run.as_dict()))
            continue
        note = f" ({run.note})" if run.note else ""
        print(
            f"{label} on {args.target}: executed {run.fn_name} "
            f"[{run.backend} backend] over {len(run.outputs)} points{note}"
        )
        exacts = samples.test_exact or samples.train_exact
        points = samples.test or samples.train
        for point, output, exact in list(zip(points, run.outputs, exacts))[: args.show]:
            rendered = ", ".join(f"{k}={v:.6g}" for k, v in point.items())
            print(f"  {rendered}  ->  {output:.17g}  (exact {exact:.17g})")
    return status


def _cmd_validate(args) -> int:
    """Execute emitted code and cross-check it against oracle + machine."""
    session = _exec_session(args)
    status = 0
    for core in _read_cores(args.input):
        label = core.name or core.properties.get("name", "<anonymous>")
        try:
            report = session.validate(
                core, args.target, program=args.program or None,
                backend=args.backend,
            )
        except Exception as error:
            print(f"{label}: FAILED ({type(error).__name__}: {error})")
            status = 1
            continue
        if args.json:
            print(json.dumps(report.as_dict()))
            continue
        verdict = "agree" if report.ok else "DISAGREE"
        print(
            f"{label} on {report.target} [{report.backend} backend]: "
            f"executed {report.executed_bits:.3f} vs machine "
            f"{report.machine_bits:.3f} bits of error over "
            f"{report.n_points} points -> {verdict} "
            f"(delta {report.agreement_bits:.3f} bits, "
            f"max {report.max_ulps} ulps, "
            f"{report.mismatch_count} mismatching points)"
        )
        if report.note:
            print(f"  note: {report.note}")
        for mismatch in report.mismatches:
            rendered = ", ".join(
                f"{k}={v:.6g}" for k, v in mismatch.point.items()
            )
            print(
                f"  point {mismatch.index} ({rendered}): "
                f"executed {mismatch.executed:.17g} vs machine "
                f"{mismatch.machine:.17g} ({mismatch.ulps} ulps)"
            )
    return status


def _render_health(payload: dict) -> None:
    """Print one ``/health`` payload as an aligned human-readable table."""

    def section(title: str, mapping) -> None:
        if not mapping:
            return
        print(f"{title}:")
        for key, value in mapping.items():
            if isinstance(value, dict):
                rendered = (
                    ", ".join(f"{k}={v}" for k, v in value.items()) or "-"
                )
                print(f"  {key:<22} {rendered}")
            elif isinstance(value, float):
                print(f"  {key:<22} {value:.4f}")
            else:
                print(f"  {key:<22} {value}")

    print(f"status: {'ok' if payload.get('ok') else 'DOWN'}")
    stats = payload.get("stats") or {}
    section(
        "session",
        {k: v for k, v in stats.items() if not isinstance(v, dict)},
    )
    section("engine", stats.get("engine"))
    section("oracle lock", stats.get("oracle"))
    section("pooled oracle", stats.get("rival"))
    section("oracle", payload.get("oracle"))
    section("cache", payload.get("cache"))
    section("pool", payload.get("pool"))
    section("provenance", payload.get("provenance"))


def _cmd_health(args) -> int:
    """Show server (or fresh local session) health as a table or JSON."""
    if args.url:
        from urllib.error import URLError
        from urllib.request import urlopen

        base = args.url.rstrip("/")
        try:
            with urlopen(base + "/health", timeout=args.timeout) as resp:
                payload = json.load(resp)
            metrics_text = ""
            if args.metrics:
                with urlopen(base + "/metrics", timeout=args.timeout) as resp:
                    metrics_text = resp.read().decode("utf-8")
        except (URLError, OSError, ValueError) as error:
            print(f"health: cannot reach {base}: {error}", file=sys.stderr)
            return 1
    else:
        from .obs.metrics import METRICS

        session = ChassisSession()
        payload = session.health()
        metrics_text = METRICS.exposition() if args.metrics else ""
        session.close()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _render_health(payload)
    if args.metrics and metrics_text:
        print()
        print(metrics_text, end="")
    return 0 if payload.get("ok") else 1


def _cmd_provenance(args) -> int:
    from .provenance.report import cmd_provenance

    return cmd_provenance(args)


def _cmd_report(args) -> int:
    from .provenance.report import cmd_report

    return cmd_report(args)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_serve(args) -> int:
    from .service.server import serve

    if args.timeout is not None and args.timeout <= 0:
        raise SystemExit("--timeout must be positive (seconds)")
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    session = ChassisSession(
        config=CompileConfig(iterations=args.iterations),
        sample_config=SampleConfig(
            n_train=args.points, n_test=args.points, seed=args.seed
        ),
        cache=args.cache_dir or None,
        jobs=args.jobs,
        timeout=args.timeout,
    )
    return serve(session, host=args.host, port=args.port, verbose=not args.quiet)


def _int_at_least(bound: int):
    """An argparse ``type`` for integers >= ``bound``; a smaller value is a
    usage error (exit 2), as serve's request validation rejects it."""

    def parse(text: str) -> int:
        value = int(text)
        if value < bound:
            raise argparse.ArgumentTypeError(f"must be >= {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_positive_int = _int_at_least(1)  # --points, report --benchmarks
_non_negative_int = _int_at_least(0)  # --iterations


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chassis, a target-aware numerical compiler (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_targets = sub.add_parser("targets", help="list built-in targets")
    p_targets.add_argument(
        "--json",
        action="store_true",
        help="emit JSON with per-target execution capability metadata "
        "(emittable languages, available empirical backends)",
    )
    p_targets.set_defaults(fn=_cmd_targets)

    p_compile = sub.add_parser("compile", help="compile FPCore for a target")
    p_compile.add_argument("input", help="FPCore file, '-' for stdin, or a benchmark name")
    p_compile.add_argument("--target", choices=TARGET_NAMES, default="c99")
    p_compile.add_argument(
        "--target-file",
        help="path to a target description in the S-expression DSL "
        "(overrides --target; links resolve against repro.fpeval)",
    )
    p_compile.add_argument("--iterations", type=_non_negative_int, default=2)
    p_compile.add_argument("--points", type=_positive_int, default=48)
    p_compile.add_argument("--seed", type=int, default=20250401)
    p_compile.add_argument("--code", action="store_true", help="emit target-language code")
    p_compile.add_argument("--infix", action="store_true", help="print programs in infix form")
    p_compile.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON object per benchmark "
        "(includes engine-counter deltas and per-phase timings)",
    )
    p_compile.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; >= 2 fans benchmarks out over a pool and "
        "merges their traces/counters back into the session",
    )
    p_compile.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON timeline of every compile "
        "(phases, e-graph search/apply, oracle wait/hold) to PATH; "
        "load it in Perfetto or chrome://tracing",
    )
    p_compile.set_defaults(fn=_cmd_compile)

    p_batch = sub.add_parser(
        "batch",
        help="compile many benchmarks x targets (parallel, cached)",
    )
    p_batch.add_argument(
        "input",
        nargs="*",
        help="FPCore files or benchmark names (default: the built-in suite)",
    )
    p_batch.add_argument(
        "--suite",
        type=int,
        default=None,
        metavar="N",
        help="take the first N built-in benchmarks (when no inputs are named)",
    )
    p_batch.add_argument(
        "--targets",
        default="c99",
        help="comma-separated target names (default: c99)",
    )
    p_batch.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_batch.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result cache directory (omit to disable caching)",
    )
    p_batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job compile timeout in seconds",
    )
    p_batch.add_argument("--report", help="write a JSONL report to this path")
    p_batch.add_argument("--iterations", type=_non_negative_int, default=2)
    p_batch.add_argument("--points", type=_positive_int, default=48)
    p_batch.add_argument("--seed", type=int, default=20250401)
    p_batch.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    p_batch.set_defaults(fn=_cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="long-running JSON-over-HTTP compile server (one warm session)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result cache directory (omit to disable caching)",
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=_usable_cpus(),
        help="width of the persistent worker pool that runs cold /compile "
        "and /batch work (default: the usable CPU count; 1 compiles inline "
        "in the handler threads)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job compile timeout in seconds; binds pool workers and "
        "inline compiles in handler threads alike (clients may override "
        "per request with a 'timeout' field)",
    )
    p_serve.add_argument("--iterations", type=_non_negative_int, default=2)
    p_serve.add_argument("--points", type=_positive_int, default=48)
    p_serve.add_argument("--seed", type=int, default=20250401)
    p_serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_sample = sub.add_parser("sample", help="sample valid inputs for an FPCore")
    p_sample.add_argument("input")
    p_sample.add_argument("--points", type=_positive_int, default=32)
    p_sample.add_argument("--seed", type=int, default=20250401)
    p_sample.add_argument("--show", type=int, default=0, help="print the first N points")
    p_sample.set_defaults(fn=_cmd_sample)

    def add_exec_arguments(p):
        p.add_argument("input", help="FPCore file, '-' for stdin, or a benchmark name")
        p.add_argument("--target", choices=TARGET_NAMES, default="c99")
        p.add_argument(
            "--backend",
            choices=("auto", "c", "python"),
            default="auto",
            help="execution backend: auto picks the C build when the target "
            "emits C and a compiler exists, else the sandboxed Python "
            "backend (the graceful-degradation path)",
        )
        p.add_argument(
            "--program",
            help="float program to execute (defaults to the most accurate "
            "compiled frontier output)",
        )
        p.add_argument("--iterations", type=_non_negative_int, default=2)
        p.add_argument("--points", type=_positive_int, default=48)
        p.add_argument("--seed", type=int, default=20250401)
        p.add_argument(
            "--cache-dir",
            default=None,
            help="persistent compile cache; built shared libraries land in "
            "<cache-dir>/builds",
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="emit one machine-readable JSON object per benchmark",
        )

    p_run = sub.add_parser(
        "run", help="execute emitted code at the sampled points"
    )
    add_exec_arguments(p_run)
    p_run.add_argument(
        "--show", type=int, default=5, help="print the first N outputs"
    )
    p_run.set_defaults(fn=_cmd_run)

    p_validate = sub.add_parser(
        "validate",
        help="run emitted code and cross-check it against oracle + machine",
    )
    add_exec_arguments(p_validate)
    p_validate.set_defaults(fn=_cmd_validate)

    p_health = sub.add_parser(
        "health",
        help="show session/engine/oracle stats (from a server or locally)",
    )
    p_health.add_argument(
        "--url",
        default=None,
        help="base URL of a running `repro serve` (e.g. http://127.0.0.1:8080); "
        "omit to report on a fresh in-process session",
    )
    p_health.add_argument(
        "--timeout", type=float, default=5.0, help="HTTP timeout in seconds"
    )
    p_health.add_argument(
        "--metrics",
        action="store_true",
        help="also print the Prometheus metrics exposition",
    )
    p_health.add_argument(
        "--json", action="store_true", help="emit the raw /health JSON"
    )
    p_health.set_defaults(fn=_cmd_health)

    p_score = sub.add_parser("score", help="score a program against the oracle")
    p_score.add_argument("input")
    p_score.add_argument("--target", choices=TARGET_NAMES, default="c99")
    p_score.add_argument("--program", help="float program (defaults to the transcribed input)")
    p_score.add_argument("--points", type=_positive_int, default=64)
    p_score.set_defaults(fn=_cmd_score)

    p_prov = sub.add_parser(
        "provenance",
        help="query the provenance ledger (by job fingerprint or prefix)",
    )
    p_prov.add_argument(
        "fingerprint", nargs="?", default=None,
        help="job fingerprint (64-char digest or an 8+-char prefix); "
        "omit to show ledger info",
    )
    p_prov.add_argument(
        "--cache-dir", default=".repro-cache",
        help="cache directory whose provenance.jsonl to query",
    )
    p_prov.add_argument("--ledger", help="explicit ledger path (overrides --cache-dir)")
    p_prov.add_argument(
        "--url", default=None,
        help="query a running `repro serve`'s GET /provenance instead",
    )
    p_prov.add_argument(
        "--timeout", type=float, default=5.0, help="HTTP timeout in seconds"
    )
    p_prov.add_argument("--json", action="store_true", help="emit raw record JSON")
    p_prov.set_defaults(fn=_cmd_provenance)

    p_report = sub.add_parser(
        "report",
        help="regenerate the paper figures (fig6-fig10) with provenance manifests",
    )
    p_report.add_argument(
        "--out", default="results/report",
        help="output directory for the JSON/Markdown artifacts",
    )
    p_report.add_argument(
        "--cache-dir", default=".repro-cache",
        help="persistent compile cache (and its provenance ledger); a warm "
        "cache regenerates every figure with zero recompiles",
    )
    p_report.add_argument(
        "--figures", default=None,
        help="comma-separated subset of fig6,fig7,fig8,fig9,fig10 (default all)",
    )
    p_report.add_argument("--benchmarks", type=_positive_int, default=6,
                          help="benchmark-suite prefix size")
    p_report.add_argument("--points", type=_positive_int, default=24,
                          help="sample points per split")
    p_report.add_argument("--iterations", type=_non_negative_int, default=1,
                          help="improvement-loop iterations")
    p_report.add_argument("--seed", type=int, default=20250401)
    p_report.add_argument("--jobs", type=int, default=1, help="worker-pool width")
    p_report.add_argument("--timeout", type=float, default=None,
                          help="per-compilation timeout in seconds")
    p_report.add_argument(
        "--smoke", action="store_true",
        help="CI scale: 3 benchmarks, 8 points, 1 iteration",
    )
    p_report.add_argument(
        "--check", action="store_true",
        help="regenerate without writing; exit non-zero if tables drift "
        "from the artifacts in --out or any input job is missing from "
        "the ledger",
    )
    p_report.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
