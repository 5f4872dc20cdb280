"""The four workloads.  Each returns a :class:`Run`: its metrics, its op
count and its failures.

Every workload is a closed loop with one generating process.  Timed
regions hold only the ops; set-up, screening, warm-up and the output
checks run outside them.  Ops run in whole passes over the workload's
panel (``spec.WORKLOADS``) until ``seconds`` have passed, every pass
doing the same work (see :func:`pass_plan`), so every run measures the
same mix.  Throughput is the median over passes of the ops a pass
completed over its wall time; a ``batch`` pass is one ``compile_many``
call and a ``serve`` pass is one round of requests from both clients.

With ``trace=True`` a workload installs the layer wrappers once and then
alternates untraced and traced units of work in the same session, server
or pool: single ops for ``compile`` and ``score``, calls for ``batch``,
rounds for ``serve`` (see :func:`overhead_pairs`).  It reports the
per-layer metrics of one traced pass over the panel and the tracing
overhead: the median over pairs of traced over untraced time per op,
minus one.
"""

from __future__ import annotations

import dataclasses
import functools
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import ChassisSession, SampleConfig
from repro.benchsuite import core_named
from repro.core.transcribe import transcribe_with_poly
from repro.service.results import core_to_source

import layers
from spec import (
    SCORE_POINTS, SERVE_POINTS, WARMUP_CORE, WIDTH, WORKLOADS,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 5
#: Compile ops per run whose best program is executed by ``validate``.
VALIDATE_OPS = 3
#: Batch jobs per run whose pooled payload is recompiled in-process.
CROSSCHECK_JOBS = 2
#: Copies of the batch panel in one ``compile_many`` call, so that the
#: call's wall time is not set by its slowest job.
BATCH_COPIES = 2
#: Untraced/traced pairs of calls or rounds a traced ``batch`` or
#: ``serve`` run makes at the least.
OVERHEAD_PAIRS = 3


@dataclass
class Run:
    metrics: dict[str, float | None]
    attempted: int
    failures: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


# --- shared helpers ----------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with at least
    ten samples beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def latency_metrics(prefix: str, values: list[float], detail: dict) -> dict:
    if not values:
        return {f"{prefix}_p50_s": None, f"{prefix}_tail_s": None}
    value, percentile, count = tail(values)
    detail[f"{prefix}_tail"] = {"percentile": percentile, "samples": count}
    return {f"{prefix}_p50_s": statistics.median(values), f"{prefix}_tail_s": value}


def quality(ops: list[tuple[list[tuple[float, float]], tuple[float, float]]]) -> dict:
    """``best_error_bits`` and ``speedup_geomean`` over compile ops, each op
    given as (frontier [(cost, error)], input (cost, error)).

    The speed-up of one op is the input's cost over the cost of the
    cheapest frontier program at least as accurate as the input; an op
    with no such program is left out of the geometric mean.
    """
    best, logs = [], []
    for frontier, (input_cost, input_error) in ops:
        best.append(min(error for _cost, error in frontier))
        costs = [cost for cost, error in frontier if error <= input_error]
        if costs:
            logs.append(math.log(input_cost / min(costs)))
    return {
        "best_error_bits": statistics.fmean(best) if best else None,
        "speedup_geomean": math.exp(statistics.fmean(logs)) if logs else None,
    }


def payload_quality(payload: dict):
    frontier = [(c["cost"], c["error"]) for c in payload["frontier"]]
    return frontier, (payload["input"]["cost"], payload["input"]["error"])


def result_quality(result):
    frontier = [(c.cost, c.error) for c in result.frontier]
    return frontier, (result.input_candidate.cost, result.input_candidate.error)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set of ``pid`` (this process by default), in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pass_plan(ops, seed: int, index: int) -> list:
    """The (core, target) ops of pass ``index``, in ``seed`` order.

    After pass 0 every core is renamed (``:name`` gains a pass suffix):
    the cache keys are fresh, so nothing is answered from a cache, but
    the work is pass 0's, because the points drawn depend only on the
    core's body and the sample seed, which stays the default.  (Only the
    oracle's compiled programs, keyed by expression, carry over from
    pass 0, which therefore runs slower than later passes.)  Fresh
    sample seeds per pass would change the work from pass to pass, which
    widened the spread between runs past the bounds.
    """
    order = random.Random(f"{seed}:pass{index}").sample(list(ops), len(ops))
    return [(renamed(core, index), target) for core, target in order]


def renamed(core, index: int):
    """``core`` under the name of pass ``index`` (its own name for pass 0)."""
    if index == 0:
        return core
    return dataclasses.replace(core, name=f"{core.name}-pass{index}")


def panel_targets(panel) -> list[str]:
    return sorted({target for _core, target in panel})


def screen(session: ChassisSession, panel) -> list:
    """Parse the panel and drop pairs that cannot transcribe or sample, so
    that anything raising during the timed region is a failure."""
    kept = []
    for name, target in panel:
        core = core_named(name)
        resolved = session.resolve_target(target)
        try:
            transcribe_with_poly(core.body, resolved, core.precision)
            session.samples_for(core, SampleConfig(n_train=8, n_test=8, seed=1))
        except Exception as error:  # noqa: BLE001 - any failure screens the pair out
            print(f"screened out {name} on {target}: {error!r}", file=sys.stderr)
            continue
        kept.append((core, target))
    return kept


def timed_setup(command: list[str], ready_line: str) -> float:
    """Seconds from spawning ``command`` until it prints ``ready_line``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    try:
        for line in proc.stdout:
            if line.strip() == ready_line:
                elapsed = time.perf_counter() - start
                break
        else:
            raise RuntimeError(f"set-up probe exited without {ready_line!r}")
    finally:
        proc.stdout.close()
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


#: Set-up of a session, in a fresh process: imports, the session (and its
#: worker pool), and one compile of the warm-up core per target, which
#: builds the target's rule and operator tables.  :func:`prepare` does
#: the same in the benchmark's own session.
SESSION_PROBE = """
from repro.api import ChassisSession
from repro.benchsuite import core_named
session = ChassisSession(jobs={jobs})
specs = [(core_named({core!r}), target) for target in {targets!r}]
if {jobs} > 1:
    session.compile_many(specs * {jobs})
else:
    for core, target in specs:
        session.compile(core, target)
print("ready", flush=True)
session.close()
"""


def session_setup(jobs: int, targets: list[str]) -> float:
    code = SESSION_PROBE.format(jobs=jobs, core=WARMUP_CORE, targets=targets)
    samples = [
        timed_setup([sys.executable, "-c", code], "ready")
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(samples)


def prepare(session: ChassisSession, targets: list[str]) -> None:
    """Build every target's rule and operator tables before timing; with a
    pool, in every worker."""
    specs = [(core_named(WARMUP_CORE), target) for target in targets]
    if session.jobs > 1:
        session.compile_many(specs * session.jobs)
    else:
        for core, target in specs:
            session.compile(core, target)


def overhead_pairs(seconds: float, run_unit, min_pairs: int) -> tuple[float, list[float]]:
    """Tracing overhead from pairs of units of work in one session, server
    or pool, run after an untraced warm-up pass of the caller's.

    ``run_unit(pair, traced)`` runs unit ``pair`` (the same work for both
    calls of a pair, under fresh names) and returns its time per op.
    Pairs run until ``seconds`` have passed, and at least ``min_pairs`` of
    them; which half of a pair goes first alternates, so a drift in the
    host's speed cancels.  Returns the median over pairs of traced over
    untraced time per op, minus one, and every pair's ratio.
    """
    ratios: list[float] = []
    start = time.perf_counter()
    while len(ratios) < min_pairs or time.perf_counter() - start < seconds:
        pair = len(ratios)
        first_traced = pair % 2 == 1
        per_op = {}
        for traced in (first_traced, not first_traced):
            per_op[traced] = run_unit(pair, traced)
        ratios.append(per_op[True] / per_op[False])
    return statistics.median(ratios) - 1.0, ratios


def unit_index(pair: int, traced: bool) -> int:
    """Pass index that names one half of an overhead pair; pass 0 is the
    warm-up pass."""
    return 1 + 2 * pair + int(traced)


# --- compile and score: in-process ops ---------------------------------------------


class OutputError(Exception):
    """An op returned, but its output failed a check."""


def timed_passes(ops, seed: int, seconds: float, op, failures: list[str]):
    """Whole passes of ``op(core, target)`` over ``ops`` until ``seconds``
    have passed.  Returns per-op latencies, each pass's ops per second,
    the first pass's (core, target, result), and the peak RSS in MB at the
    end of the first pass (later passes cache more sample sets, and how
    many passes fit depends on the host's speed)."""
    latencies, rates, first = [], [], []
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        order = pass_plan(ops, seed, len(rates))
        pass_start = time.perf_counter()
        for core, target in order:
            began = time.perf_counter()
            try:
                result = op(core, target)
            except Exception as error:  # noqa: BLE001 - counted, not fatal
                failures.append(f"{core.name}/{target}: {error!r}")
                continue
            latencies.append(time.perf_counter() - began)
            if not rates:
                first.append((core, target, result))
        if not rates:
            rss = peak_rss_mb()
        rates.append(len(order) / (time.perf_counter() - pass_start))
    return latencies, rates, first, rss


def _in_process(name: str, seed: int, seconds: float, op):
    """Set-up, screening, warm-up and the timed passes of the ``compile``
    or ``score`` workload.  Returns the session, the first pass's results
    and the run so far; throughput is the median over passes, so a slow
    spell on a shared host moves one pass rather than the run."""
    panel = WORKLOADS[name].panel
    targets = panel_targets(panel)
    setup = session_setup(1, targets)
    session = ChassisSession()
    ops = screen(session, panel)
    prepare(session, targets)
    failures: list[str] = []
    latencies, rates, first, rss = timed_passes(
        ops, seed, seconds, functools.partial(op, session), failures,
    )
    detail: dict = {"pass_ops_per_s": rates}
    metrics = {
        "setup_s": setup,
        "ops_per_s": statistics.median(rates),
        **latency_metrics("latency", latencies, detail),
        "peak_rss_mb": rss,
    }
    return session, first, Run(metrics, len(ops) * len(rates), failures, detail)


def _compile_op(session, core, target):
    result = session.compile(core, target)
    if len(result.frontier) == 0:
        raise OutputError("empty frontier")
    return result


def run_compile(seed: int, seconds: float, trace: bool) -> Run:
    if trace:
        return _traced_in_process(WORKLOADS["compile"].panel, seed, seconds, _compile_op)
    session, first, run = _in_process("compile", seed, seconds, _compile_op)
    # Outside the timed region: run the most accurate program of a seeded
    # subset through the Python backend, an interpreter independent of the
    # compiler's own fpeval scoring.
    rng = random.Random(f"{seed}:validate")
    for core, target, result in rng.sample(first, min(VALIDATE_OPS, len(first))):
        report = session.validate(
            core, target, program=result.frontier.best_error().program,
            backend="python",
        )
        if not report.ok:
            run.failures.append(
                f"{core.name}/{target}: validate disagrees by {report.agreement_bits} bits"
            )
    session.close()
    run.metrics.update(quality([result_quality(result) for _c, _t, result in first]))
    return run


def _score_op(session, core, target):
    bits = session.score(
        core, target,
        sample_config=SampleConfig(n_train=SCORE_POINTS, n_test=SCORE_POINTS),
    )
    if not 0.0 <= bits <= 64.0:
        raise OutputError(f"score {bits!r} outside [0, 64] bits")
    return bits


def run_score(seed: int, seconds: float, trace: bool) -> Run:
    if trace:
        return _traced_in_process(WORKLOADS["score"].panel, seed, seconds, _score_op)
    session, first, run = _in_process("score", seed, seconds, _score_op)
    session.close()
    run.metrics.update({
        # A score op's only program is its input, so its best error is the
        # scored error and its speed-up over itself is 1 by definition.
        "best_error_bits": statistics.fmean(bits for _c, _t, bits in first) if first else None,
        "speedup_geomean": 1.0,
    })
    return run


# --- traced in-process passes (compile, score) ----------------------------------------


def _traced_in_process(panel, seed: int, seconds: float, op) -> Run:
    """Pairs of single ops, one untraced and one traced, over the panel in
    ``seed`` order and round again.  The traced ops of the first round
    (every op once) give the per-layer metrics; later ones only time the
    tracer.  Pass 0, untraced and untimed, warms the session first."""
    layers.install()
    session = ChassisSession()
    ops = screen(session, panel)
    prepare(session, panel_targets(panel))
    order = pass_plan(ops, seed, 0)
    for core, target in order:
        op(session, core, target)
    totals: Counter = Counter()
    engine: Counter = Counter()
    oracle: Counter = Counter()
    lock = threading.Lock()

    def counters():
        return (
            session.stats.engine.as_dict(),
            session.oracle.counters().as_dict(),
            {"lock.wait": session.stats.oracle.wait_seconds,
             "lock.hold": session.stats.oracle.hold_seconds},
        )

    def run_unit(pair: int, traced: bool) -> float:
        core, target = order[pair % len(order)]
        core = renamed(core, unit_index(pair, traced))
        fold = traced and pair < len(order)
        if not traced:
            start = time.perf_counter()
            op(session, core, target)
            return time.perf_counter() - start
        sink = totals if fold else Counter()
        before = counters()
        start = time.perf_counter()
        result = layers.traced_op(sink, lock, op, session, core, target)
        elapsed = time.perf_counter() - start
        if fold:
            after = counters()
            engine.update(_delta(after[0], before[0]))
            oracle.update(_delta(after[1], before[1]))
            totals.update(_delta(after[2], before[2]))
            if op is _compile_op:
                totals["frontier_kept"] += len(result.frontier)
        return elapsed

    overhead, ratios = overhead_pairs(seconds, run_unit, len(order))
    session.close()
    metrics = per_layer(totals, engine, oracle)
    metrics["oracle_lock.wait_s"] = totals["lock.wait"]
    metrics["oracle_lock.hold_s"] = totals["lock.hold"]
    metrics["trace.overhead_frac"] = overhead
    return Run(metrics, len(ops), [], {"overhead_ratios": ratios})


def _delta(after: dict, before: dict) -> dict:
    delta = {}
    for key, value in after.items():
        if isinstance(value, dict):
            value = sum(value.values())
            before_value = sum(before.get(key, {}).values())
        else:
            before_value = before.get(key, 0)
        delta[key] = value - before_value
    return delta


def per_layer(totals: Counter, engine: dict, oracle: dict) -> dict[str, float]:
    """Every per-layer metric: folded spans plus the program's own engine
    and oracle counters.  Layers a workload never reaches read 0."""
    metrics = layers.layer_metrics(totals)
    points = oracle.get("batch_points", 0)
    fast, dd = oracle.get("fastpath_hits", 0), oracle.get("dd_hits", 0)
    metrics.update({
        "oracle.batch_points": points,
        "oracle.longdouble_frac": (fast - dd) / points if points else 0.0,
        "oracle.dd_frac": dd / points if points else 0.0,
        "oracle.ladder_frac": oracle.get("escalated_points", 0) / points if points else 0.0,
        "isel.saturation_hits": engine.get("saturation_hits", 0),
        "isel.saturation_misses": engine.get("saturation_misses", 0),
        "egraph.enodes_built": engine.get("enodes_built", 0),
        "egraph.matches_found": engine.get("matches_found", 0),
        "egraph.matches_applied": engine.get("matches_applied", 0),
        "egraph.rules_truncated": engine.get("rules_truncated", 0),
        "improve.frontier_kept_frac": (
            totals["frontier_kept"] / totals["score_candidates.calls"]
            if totals["score_candidates.calls"] else 0.0
        ),
        "oracle_lock.wait_s": 0.0,
        "oracle_lock.hold_s": 0.0,
        "cache.hits": 0,
        "cache.misses": 0,
        "http.server_s": 0.0,
        "http.queue_s": 0.0,
        "pool.worker_s": 0.0,
        "pool.efficiency": 0.0,
    })
    return metrics


# --- batch ---------------------------------------------------------------------------


def _pool_rss(session) -> float:
    return max(peak_rss_mb(pid) for pid in session.pool_info()["pids"])


def batch_call(specs, seed: int, index: int) -> list:
    """The jobs of ``compile_many`` call ``index``: :data:`BATCH_COPIES`
    passes of the panel, each under its own names."""
    return [
        spec
        for copy in range(BATCH_COPIES)
        for spec in pass_plan(specs, seed, BATCH_COPIES * index + copy)
    ]


def _strip_elapsed(payload: dict) -> str:
    return json.dumps({k: v for k, v in payload.items() if k != "elapsed"}, sort_keys=True)


def run_batch(seed: int, seconds: float, trace: bool) -> Run:
    panel = WORKLOADS["batch"].panel
    if trace:
        return _traced_batch(panel, seed, seconds)
    targets = panel_targets(panel)
    setup = session_setup(WIDTH, targets)
    session = ChassisSession(jobs=WIDTH)
    specs = screen(session, panel)
    prepare(session, targets)
    failures: list[str] = []
    latencies: list[float] = []
    rates: list[float] = []
    first_call = []
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        order = batch_call(specs, seed, len(rates))
        call_start = time.perf_counter()
        outcomes = session.compile_many(order)
        rates.append(len(order) / (time.perf_counter() - call_start))
        for (core, target), outcome in zip(order, outcomes):
            label = f"{core.name}/{target}"
            if not outcome.ok:
                failures.append(f"{label}: {outcome.status} {outcome.error_type}: {outcome.error}")
            elif not outcome.payload["frontier"]:
                failures.append(f"{label}: empty frontier")
            else:
                latencies.append(outcome.elapsed)
                if len(rates) == 1:
                    first_call.append((core, target, outcome.payload))
    rss = _pool_rss(session)
    session.close()
    # Outside the timed region: pooled payloads must equal in-process ones
    # byte for byte (bar the wall-clock field), and the most accurate
    # program must run through the Python backend, an interpreter
    # independent of the compiler's own fpeval scoring.
    inline = ChassisSession()
    rng = random.Random(f"{seed}:crosscheck")
    for core, target, payload in rng.sample(first_call, min(CROSSCHECK_JOBS, len(first_call))):
        expected, _cached = inline.compile_payload(core, target)
        if _strip_elapsed(expected) != _strip_elapsed(payload):
            failures.append(f"{core.name}/{target}: pooled payload differs from in-process")
        report = inline.validate(core, target, backend="python")
        if not report.ok:
            failures.append(
                f"{core.name}/{target}: validate disagrees by {report.agreement_bits} bits"
            )
    inline.close()
    detail: dict = {"pass_ops_per_s": rates}
    metrics = {
        "setup_s": setup,
        # Median over compile_many calls, as for the in-process passes.
        "ops_per_s": statistics.median(rates),
        # A batch caller sees only the batch; per-job latency is the time
        # a worker spent on the job (JobOutcome.elapsed).
        **latency_metrics("latency", latencies, detail),
        "peak_rss_mb": rss,
        # Every copy of the panel in the first call does the same work, so
        # the copies leave the mean and the geometric mean unchanged.
        **quality([payload_quality(entry[2]) for entry in first_call]),
    }
    return Run(metrics, len(specs) * BATCH_COPIES * len(rates), failures, detail)


def _traced_batch(panel, seed: int, seconds: float) -> Run:
    # Forked after install(), the pool's workers inherit the wrappers.
    layers.install()
    session = ChassisSession(jobs=WIDTH)
    specs = screen(session, panel)
    prepare(session, panel_targets(panel))
    if session.pool_info()["start_method"] != "fork":
        raise RuntimeError("traced pool was not forked; workers would run unwrapped")
    session.compile_many(batch_call(specs, seed, 0))
    first: list = []

    def run_unit(pair: int, traced: bool) -> float:
        # The first traced call gives the per-layer metrics; later ones
        # only time the tracer.
        order = batch_call(specs, seed, unit_index(pair, traced))
        start = time.perf_counter()
        outcomes = session.compile_many(order, trace=traced)
        elapsed = time.perf_counter() - start
        if traced and not first:
            first.extend((outcomes, elapsed))
        return elapsed / len(order)

    overhead, ratios = overhead_pairs(seconds, run_unit, OVERHEAD_PAIRS)
    session.close()
    outcomes, traced_s = first
    totals: Counter = Counter()
    engine: Counter = Counter()
    oracle: Counter = Counter()
    failures = []
    worker_s = 0.0
    for outcome in outcomes:
        if not outcome.ok:
            failures.append(f"{outcome.benchmark}/{outcome.target}: {outcome.status}")
            continue
        worker_s += outcome.elapsed
        layers.fold(outcome.trace["spans"], totals)
        totals["frontier_kept"] += len(outcome.payload["frontier"])
        engine.update(_delta(outcome.engine or {}, {}))
        oracle.update(outcome.oracle or {})
    metrics = per_layer(totals, engine, oracle)
    metrics["pool.worker_s"] = worker_s
    metrics["pool.efficiency"] = worker_s / (traced_s * WIDTH)
    metrics["trace.overhead_frac"] = overhead
    return Run(metrics, len(outcomes), failures, {"overhead_ratios": ratios})


# --- serve ---------------------------------------------------------------------------


_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


def _body(core, target: str) -> bytes:
    return json.dumps({"core": core_to_source(core), "target": target}).encode()


class Server:
    """One ``repro serve`` process on a free port with a fresh cache.

    It counts as ready, and its set-up as done, once it has answered
    ``/health`` and compiled the warm-up core on every target in
    ``targets``, which builds the targets' rule and operator tables.
    """

    def __init__(self, scratch: Path, targets: list[str], traced_dump: Path | None = None):
        self.cache_dir = Path(tempfile.mkdtemp(prefix="serve-cache-", dir=scratch))
        serve_args = [
            "serve", "--port", "0", "--cache-dir", str(self.cache_dir),
            "--points", str(SERVE_POINTS), "--quiet",
        ]
        if traced_dump is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [
                sys.executable, str(Path(__file__).with_name("layers.py")),
                str(traced_dump), *serve_args,
            ]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, env=child_env(), cwd=ROOT,
        )
        self._stderr: deque[str] = deque(maxlen=50)
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        try:
            address = None
            for line in self.proc.stderr:
                self._stderr.append(line)
                match = _LISTENING.search(line)
                if match:
                    address = (match.group(1), int(match.group(2)))
                    break
            if address is None:
                raise RuntimeError("server exited before listening: " + "".join(self._stderr))
            self.host, self.port = address
            # Keep draining stderr so the server never blocks on a full pipe.
            self._drain.start()
            self.request("GET", "/health")
            for target in targets:
                reply = json.loads(self.request(
                    "POST", "/compile", _body(core_named(WARMUP_CORE), target),
                ))
                if reply.get("status") != "ok":
                    raise RuntimeError(f"warm-up compile on {target} failed: {reply}")
        except BaseException:
            self.proc.kill()
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def request(self, method: str, path: str, body: bytes | None = None) -> bytes:
        conn = self.connection()
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
            if response.status != 200:
                raise RuntimeError(f"{method} {path}: HTTP {response.status}")
            return payload
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self._drain.ident is not None:
            self._drain.join(timeout=10)
        self.proc.stderr.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _prometheus(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


@dataclass
class _Reply:
    kind: str
    request: bytes
    latency: float
    cached: str
    status: int
    body: bytes


class _Client:
    """One keep-alive connection.  Each cold request is followed by a
    repeat of one this client already completed, which the server answers
    from its cache."""

    def __init__(self, server: Server, seed: int, index: int):
        self.conn = server.connection()
        self.rng = random.Random(f"{seed}:client{index}")
        self.done: list[bytes] = []
        self.replies: list[_Reply] = []
        self.error: BaseException | None = None

    def send(self, kind: str, request: bytes) -> None:
        began = time.perf_counter()
        self.conn.request("POST", "/compile", body=request,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        body = response.read()
        self.replies.append(_Reply(
            kind, request, time.perf_counter() - began,
            response.getheader("X-Repro-Cached", ""), response.status, body,
        ))
        if kind == "cold" and response.status == 200:
            self.done.append(request)

    def run(self, colds) -> None:
        try:
            for request in colds:
                self.send("cold", request)
                if self.done:
                    self.send("warm", self.rng.choice(self.done))
        except (OSError, http.client.HTTPException) as error:
            self.error = error


class _Clients:
    """:data:`WIDTH` clients that share out each round's cold requests and
    run the round concurrently; a round ends when every client is done."""

    def __init__(self, server: Server, seed: int):
        self.clients = [_Client(server, seed, index) for index in range(WIDTH)]

    def __enter__(self) -> _Clients:
        return self

    def __exit__(self, *exc) -> None:
        for client in self.clients:
            client.conn.close()

    def round(self, colds: list[bytes]) -> tuple[list[_Reply], float]:
        """Send one round; returns its replies and its wall time."""
        marks = [len(client.replies) for client in self.clients]
        threads = [
            threading.Thread(target=client.run, args=(colds[index::WIDTH],))
            for index, client in enumerate(self.clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        errors = [client.error for client in self.clients if client.error is not None]
        if errors:
            raise RuntimeError(f"serve client failed: {errors[0]!r}")
        replies = [
            reply
            for client, mark in zip(self.clients, marks)
            for reply in client.replies[mark:]
        ]
        return replies, elapsed


def _check_replies(replies: list[_Reply], failures: list[str]) -> dict[bytes, bytes]:
    """Every reply is an ok compile with a frontier, and every warm body
    equals the cold body of the same request; returns cold bodies."""
    cold: dict[bytes, bytes] = {}
    for reply in replies:
        if reply.kind == "cold":
            cold[reply.request] = reply.body
    for reply in replies:
        label = json.loads(reply.request).get("core", "")[:40]
        if reply.status != 200:
            failures.append(f"{label}: HTTP {reply.status}")
            continue
        parsed = json.loads(reply.body)
        if parsed.get("status") != "ok":
            failures.append(f"{label}: {parsed.get('status')} {parsed.get('error')}")
        elif not parsed["result"]["frontier"]:
            failures.append(f"{label}: empty frontier")
        elif reply.kind == "warm" and reply.body != cold.get(reply.request):
            failures.append(f"{label}: warm body differs from cold body")
    return cold


def _serve_round(ops, seed: int, index: int) -> list[bytes]:
    """Cold request bodies of round ``index``: the panel in ``seed`` order."""
    return [_body(core, target) for core, target in pass_plan(ops, seed, index)]


def run_serve(seed: int, seconds: float, trace: bool, scratch: Path) -> Run:
    panel = WORKLOADS["serve"].panel
    targets = panel_targets(panel)
    with ChassisSession() as session:
        ops = screen(session, panel)
    if trace:
        return _traced_serve(ops, targets, seed, seconds, scratch)
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        probe = Server(scratch, targets)
        setups.append(probe.setup_s)
        probe.stop()
    server = Server(scratch, targets)
    setups.append(server.setup_s)
    flat: list[_Reply] = []
    rates: list[float] = []
    try:
        with _Clients(server, seed) as clients:
            start = time.perf_counter()
            while not rates or time.perf_counter() - start < seconds:
                replies, elapsed = clients.round(_serve_round(ops, seed, len(rates)))
                flat += replies
                rates.append(len(replies) / elapsed)
        rss = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    failures: list[str] = []
    cold_bodies = _check_replies(flat, failures)
    cold = [r.latency for r in flat if r.status == 200 and r.cached == "0"]
    warm_hits = [r.latency for r in flat if r.status == 200 and r.cached == "1"]
    detail: dict = {"cold": len(cold), "warm": len(warm_hits), "round_ops_per_s": rates}
    metrics = {
        "setup_s": statistics.median(setups),
        # Median over rounds of the requests a round completed over its
        # wall time, as for the other workloads' passes.
        "ops_per_s": statistics.median(rates),
        **latency_metrics("latency", cold, detail),
        **latency_metrics("warm", warm_hits, detail),
        "peak_rss_mb": rss,
        # Round 0 is the same requests for every seed.
        **quality([
            payload_quality(json.loads(cold_bodies[request])["result"])
            for request in _serve_round(ops, seed, 0) if request in cold_bodies
        ]),
    }
    return Run(metrics, len(flat), failures, detail)


def _traced_serve(ops, targets: list[str], seed: int, seconds: float, scratch: Path) -> Run:
    dump = scratch / "serve-layers.json"
    switch = layers.switch_path(dump)
    server = Server(scratch, targets, traced_dump=dump)
    flat: list[_Reply] = []
    folded: dict = {}

    def snapshot() -> tuple[dict, dict]:
        return (json.loads(server.request("GET", "/health")),
                _prometheus(server.request("GET", "/metrics").decode()))

    def run_unit(pair: int, traced: bool) -> float:
        # The first traced round gives the per-layer metrics; later traced
        # rounds only time the tracer.
        fold = traced and not folded
        if traced:
            switch.write_text(layers.FOLD if fold else layers.ARMED)
        else:
            switch.unlink(missing_ok=True)
        if fold:
            folded["before"] = snapshot()
        replies, elapsed = clients.round(_serve_round(ops, seed, unit_index(pair, traced)))
        flat.extend(replies)
        if fold:
            folded["after"] = snapshot()
            folded["replies"] = replies
        return elapsed / len(replies)

    try:
        with _Clients(server, seed) as clients:
            flat += clients.round(_serve_round(ops, seed, 0))[0]
            overhead, ratios = overhead_pairs(seconds, run_unit, OVERHEAD_PAIRS)
    finally:
        server.stop()
    failures: list[str] = []
    _check_replies(flat, failures)
    totals = Counter(json.loads(dump.read_text()).get(layers.FOLD, {}))
    dump.unlink()
    switch.unlink(missing_ok=True)
    (health_before, metrics_before), (health_after, metrics_after) = (
        folded["before"], folded["after"],
    )

    def scraped(name: str) -> float:
        return metrics_after.get(name, 0.0) - metrics_before.get(name, 0.0)

    engine = _delta(health_after["stats"]["engine"], health_before["stats"]["engine"])
    oracle_after, oracle_before = health_after["oracle"], health_before["oracle"]
    oracle = {
        key: oracle_after[key] - oracle_before[key]
        for key in ("batch_points", "fastpath_hits", "escalated_points")
    }
    oracle["dd_hits"] = oracle_after["rungs"]["dd_hits"] - oracle_before["rungs"]["dd_hits"]
    metrics = per_layer(totals, engine, oracle)
    server_s = scraped('repro_http_request_seconds_sum{route="/compile"}')
    # /health reports an empty cache as null (the cache's truth value is
    # its length), so a fresh server's counters read as zeros.
    empty = {"hits": 0, "misses": 0}
    cache_after = health_after["cache"] or empty
    cache_before = health_before["cache"] or empty
    metrics.update({
        "oracle_lock.wait_s": sum(
            scraped(f'repro_oracle_wait_seconds_sum{{section="{section}"}}')
            for section in ("compile", "pipeline", "ladder")
        ),
        "oracle_lock.hold_s": sum(
            scraped(f'repro_oracle_hold_seconds_sum{{section="{section}"}}')
            for section in ("compile", "pipeline", "ladder")
        ),
        "cache.hits": cache_after["hits"] - cache_before["hits"],
        "cache.misses": cache_after["misses"] - cache_before["misses"],
        "http.server_s": server_s,
        "http.queue_s": sum(reply.latency for reply in folded["replies"]) - server_s,
        "trace.overhead_frac": overhead,
    })
    for phase in ("parse", "sample", "transcribe", "improve", "regimes", "score"):
        if not metrics[f"phase.{phase}.s"]:
            metrics[f"phase.{phase}.s"] = scraped(
                f'repro_phase_seconds_sum{{phase="{phase}"}}'
            )
    return Run(metrics, len(flat), failures, {"overhead_ratios": ratios})


RUNNERS = {
    "compile": run_compile,
    "score": run_score,
    "serve": run_serve,
    "batch": run_batch,
}
