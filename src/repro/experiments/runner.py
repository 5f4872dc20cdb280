"""Experiment runners regenerating the paper's evaluation (section 6).

Each ``run_*`` function reproduces the data behind one figure; the printers
in :mod:`repro.experiments.report` render them as the rows/series the paper
reports.  Scale knobs (benchmark count, sample sizes, loop iterations) keep
full runs tractable in pure Python; raising them approaches the paper's
settings (547 benchmarks, 10 000 points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import sys

from ..accuracy.sampler import SampleConfig, SampleSet, SamplingError
from ..baselines.clang import compile_all_configs
from ..baselines.herbie import herbie_frontier_on_target, run_herbie
from ..core.candidates import ParetoFrontier
from ..core.loop import CompileConfig
from ..core.transcribe import Untranscribable
from ..ir.fpcore import FPCore
from ..formats import get_format
from ..perf.simulator import PerfSimulator
from ..service.cache import CompileCache, core_fingerprint
from ..session import ChassisSession
from ..targets.target import Target
from .pareto import Entry


@dataclass
class ExperimentConfig:
    """Shared scale knobs for all experiment runners."""

    compile_config: CompileConfig = field(default_factory=CompileConfig)
    sample_config: SampleConfig = field(
        default_factory=lambda: SampleConfig(n_train=48, n_test=48)
    )
    #: Worker-pool width for the batch compilation service.
    jobs: int = 1
    #: Shared persistent result cache (a CompileCache or a directory path);
    #: None disables caching.
    cache: CompileCache | str | None = None
    #: Per-compilation timeout in seconds (None = unbounded).
    timeout: float | None = None
    #: The warm session every runner compiles through (built lazily from the
    #: knobs above; pass one explicitly to share it across experiments).
    session: ChassisSession | None = field(default=None, repr=False)

    def get_session(self) -> ChassisSession:
        """This experiment's session (created on first use).

        With ``jobs >= 2`` the session owns a *persistent* worker pool:
        every ``compile_all`` across every runner sharing this config
        reuses the same warm worker processes instead of rebuilding a pool
        per batch.  Call :meth:`close` when the experiments are done.
        """
        if self.session is None:
            self.session = ChassisSession(
                config=self.compile_config,
                sample_config=self.sample_config,
                cache=self.cache,
                jobs=self.jobs,
                timeout=self.timeout,
            )
        return self.session

    def close(self) -> None:
        """Drain the session's submit executor and worker pool (no-op if
        no session was ever created; the session stays usable for
        synchronous calls)."""
        if self.session is not None:
            self.session.close()

    def compile_all(self, specs):
        """Run (core, target) specs through the session's pool.

        Expected infeasibilities (Untranscribable, SamplingError, timeouts)
        are the paper's removal protocol and stay silent; anything else is a
        compiler bug being dropped from a figure, so it is loudly flagged.
        """
        outcomes = self.get_session().compile_many(specs)
        expected = {"Untranscribable", "SamplingError", "JobTimeout", ""}
        for outcome in outcomes:
            if not outcome.ok and outcome.error_type not in expected:
                print(
                    f"warning: {outcome.benchmark} on {outcome.target} "
                    f"failed unexpectedly ({outcome.error_type}: {outcome.error}); "
                    f"dropped from results",
                    file=sys.stderr,
                )
        return outcomes


def _accuracy_bits(error: float, precision: str) -> float:
    return get_format(precision).bits - error


def _runtime(simulator: PerfSimulator, program, samples: SampleSet, precision: str) -> float:
    return simulator.run_time(program, samples.test, precision)


# --- Figure 7: Chassis vs Clang on the C target -----------------------------------------


@dataclass
class ClangComparison:
    """Per-benchmark figure 7 data."""

    benchmark: str
    chassis: list[Entry]
    #: config name -> single (speedup, accuracy) entry
    clang: dict[str, Entry]
    #: compiler run times (seconds): the paper reports Chassis ~1 minute
    #: per benchmark vs Clang under a second.
    chassis_compile_s: float = 0.0
    clang_compile_s: float = 0.0
    #: Whether run times were *measured* on executed emitted code rather
    #: than predicted by the performance simulator.
    empirical: bool = False


def run_clang_comparison(
    cores: list[FPCore],
    target: Target,
    config: ExperimentConfig | None = None,
    *,
    empirical: bool = False,
) -> list[ClangComparison]:
    """Chassis vs 12 Clang configurations; speedups relative to -O0.

    With ``empirical=True`` program run times come from the execution
    backend (:mod:`repro.exec`) — emitted code compiled by the system
    compiler (or the Python backend when none exists) and wall-clock
    timed over the test points — instead of from the performance
    simulator, closing the figure's loop on real hardware.  Speedups are
    ratios, so measured and simulated times must never mix within one
    benchmark: if *any* of a benchmark's programs cannot be measured, the
    whole benchmark falls back to simulated time.
    """
    config = config or ExperimentConfig()
    session = config.get_session()
    simulator = session.simulator(target)
    results: list[ClangComparison] = []

    def runtimes_for(programs, core, samples) -> tuple[dict[int, float], bool]:
        """``(id(program) -> ns/eval, measured?)`` — empirically for every
        program or, if any fails to build/run, from the simulator for
        every program (a measured-to-simulated speedup ratio is
        meaningless), with the flag recording which actually happened so
        the per-benchmark ``empirical`` field stays honest."""
        if empirical:
            from ..exec.timing import measure_executable

            try:
                times = {}
                for program in programs:
                    executable = session.executable(
                        core, target, program=program
                    )
                    times[id(program)] = measure_executable(
                        executable,
                        samples.test[:24] or samples.train[:24],
                        repeats=3,
                    ).median_ns
                return times, True
            except Exception:
                pass  # some program is unrunnable: simulate them all
        return {
            id(program): _runtime(simulator, program, samples, core.precision)
            for program in programs
        }, False

    outcomes = config.compile_all([(core, target) for core in cores])
    for core, outcome in zip(cores, outcomes):
        if not outcome.ok:
            continue  # paper: infeasible benchmark/target pairs are removed
        result = outcome.result
        samples = result.samples
        import time as _time

        clang_start = _time.monotonic()
        try:
            clang_outputs = compile_all_configs(core, target)
        except Untranscribable:
            continue
        clang_elapsed = _time.monotonic() - clang_start
        times, measured = runtimes_for(
            {id(p): p for p in (
                [o.program for o in clang_outputs]
                + [c.program for c in result.frontier]
            )}.values(),
            core,
            samples,
        )
        base = next(o for o in clang_outputs if o.level == "-O0" and not o.fast_math)
        base_time = times[id(base.program)] * base.time_factor
        if base_time <= 0:
            continue

        clang_entries: dict[str, Entry] = {}
        from ..accuracy.scoring import score_program

        for output in clang_outputs:
            time = times[id(output.program)] * output.time_factor
            error = score_program(
                output.program, target, samples.test, samples.test_exact, core.precision
            )
            clang_entries[output.config_name] = (
                base_time / time,
                _accuracy_bits(error, core.precision),
            )

        chassis_entries: list[Entry] = []
        for candidate in result.frontier:
            time = times[id(candidate.program)]
            chassis_entries.append(
                (base_time / time, _accuracy_bits(candidate.error, core.precision))
            )
        results.append(
            ClangComparison(
                core.name or "?",
                chassis_entries,
                clang_entries,
                chassis_compile_s=result.elapsed,
                clang_compile_s=clang_elapsed,
                empirical=measured,
            )
        )
    return results


# --- Figures 8 and 9: Chassis vs Herbie across targets ----------------------------------------


@dataclass
class HerbieComparison:
    """Per-benchmark, per-target figure 8/9 data."""

    benchmark: str
    target: str
    chassis: list[Entry]
    herbie: list[Entry]
    input_entry: Entry
    translation_stats: dict[str, int]


def run_herbie_comparison(
    cores: list[FPCore],
    targets: list[Target],
    config: ExperimentConfig | None = None,
) -> list[HerbieComparison]:
    """Chassis vs Herbie; speedups relative to the *input* program.

    Implements the paper's bias-toward-Herbie rules: Chassis outputs more
    accurate than Herbie's best are discarded; benchmarks where every Herbie
    output is unsupported are removed for both systems.
    """
    config = config or ExperimentConfig()
    session = config.get_session()
    results: list[HerbieComparison] = []

    # The Herbie baseline runs on each benchmark's samples.  Keyed by
    # *content* fingerprint: keying on core.name collides for anonymous
    # benchmarks.  The session's sample cache holds this draw, and the
    # compile engine hands the held set to the benchmark's compile jobs,
    # so nothing is drawn twice; the local dict records which benchmarks
    # proved sampleable.
    samples_cache: dict[str, SampleSet] = {}
    for core in cores:
        key = core_fingerprint(core)
        if key in samples_cache:
            continue
        try:
            samples_cache[key] = session.samples_for(core)
        except SamplingError:
            continue  # paper: unsampleable benchmarks are removed

    # One list drives both the service call and the consuming loop, so
    # outcome pairing is by construction, not by two filters agreeing.
    jobs: list[tuple[Target, FPCore, str]] = []
    for target in targets:
        for core in cores:
            key = core_fingerprint(core)
            if key in samples_cache:
                jobs.append((target, core, key))
    outcomes = config.compile_all([(core, target) for target, core, _key in jobs])

    # Herbie's target-agnostic loop also depends only on the benchmark and
    # its samples, so its IR frontier is computed once and lowered per
    # target.
    herbie_ir_cache: dict[str, ParetoFrontier] = {}

    for (target, core, key), outcome in zip(jobs, outcomes):
        simulator = session.simulator(target)
        samples = samples_cache[key]
        if not outcome.ok:
            continue
        result = outcome.result
        if key not in herbie_ir_cache:
            herbie_ir_cache[key] = run_herbie(
                core, samples, config.compile_config, session=session
            )
        herbie_frontier, stats = herbie_frontier_on_target(
            core, target, samples, config.compile_config,
            ir_frontier=herbie_ir_cache[key], session=session,
        )
        if len(herbie_frontier) == 0:
            continue  # paper: benchmark removed for both systems

        input_time = _runtime(
            simulator, result.input_candidate.program, samples, core.precision
        )
        input_entry = (
            1.0,
            _accuracy_bits(result.input_candidate.error, core.precision),
        )

        herbie_entries: list[Entry] = []
        for candidate in herbie_frontier:
            time = _runtime(simulator, candidate.program, samples, core.precision)
            herbie_entries.append(
                (input_time / time, _accuracy_bits(candidate.error, core.precision))
            )
        herbie_best_acc = max(a for _s, a in herbie_entries)

        chassis_entries: list[Entry] = []
        for candidate in result.frontier:
            accuracy = _accuracy_bits(candidate.error, core.precision)
            if accuracy > herbie_best_acc + 0.5:
                continue  # paper: discard outputs more accurate than Herbie's
            time = _runtime(simulator, candidate.program, samples, core.precision)
            chassis_entries.append((input_time / time, accuracy))
        if not chassis_entries:
            continue

        results.append(
            HerbieComparison(
                benchmark=core.name or "?",
                target=target.name,
                chassis=chassis_entries,
                herbie=herbie_entries,
                input_entry=input_entry,
                translation_stats=stats,
            )
        )
    return results


# --- Figure 10: cost model vs simulated run time ------------------------------------------------


@dataclass
class CostModelPoint:
    """One program's estimated cost and simulated run time."""

    target: str
    benchmark: str
    estimated_cost: float
    run_time: float


def run_cost_model_study(
    cores: list[FPCore],
    targets: list[Target],
    config: ExperimentConfig | None = None,
) -> list[CostModelPoint]:
    """Collect (estimated cost, simulated run time) pairs across targets."""
    config = config or ExperimentConfig()
    session = config.get_session()
    points: list[CostModelPoint] = []
    outcomes = config.compile_all(
        [(core, target) for target in targets for core in cores]
    )
    index = 0
    for target in targets:
        simulator = session.simulator(target)
        model = session.cost_model(target)
        for core in cores:
            outcome = outcomes[index]
            index += 1
            if not outcome.ok:
                continue
            result = outcome.result
            for candidate in result.frontier:
                try:
                    cost = model.program_cost(candidate.program)
                except KeyError:
                    continue
                time = _runtime(simulator, candidate.program, result.samples, core.precision)
                points.append(
                    CostModelPoint(target.name, core.name or "?", cost, time)
                )
    return points


def correlation(points: list[CostModelPoint]) -> float:
    """Pearson correlation of log-cost vs log-runtime (figure 10's trend)."""
    if len(points) < 3:
        return float("nan")
    xs = [math.log(max(p.estimated_cost, 1e-9)) for p in points]
    ys = [math.log(max(p.run_time, 1e-9)) for p in points]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx <= 0 or vy <= 0:
        return float("nan")
    return cov / math.sqrt(vx * vy)
