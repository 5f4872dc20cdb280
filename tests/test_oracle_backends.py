"""Backend-equivalence tests for the pluggable oracle subsystem.

Every oracle backend is an *acceptance filter* over the same escalation-
ladder semantics — never an approximation — so points, exact values and
statuses must be bit-identical across ``numpy`` and ``mpmath``, and
across ``jobs=1`` vs pooled execution.  These tests pin that contract
on curated benchmarks, adversarial special points (signed zeros,
infinities, NaN, overflow-scale magnitudes) and randomized generated
expressions.
"""

import dataclasses
import math
import struct

import pytest

from repro.accuracy.sampler import SampleConfig, sample_core
from repro.api import ChassisSession, CompileConfig
from repro.benchsuite.generator import generate_core
from repro.benchsuite.suite import core_named
from repro.deadline import DeadlineExceeded
from repro.ir.parser import parse_expr
from repro.ir.types import F32, F64
from repro.obs.metrics import METRICS
from repro.rival.backends import (
    BACKEND_NAMES,
    OK,
    MpmathBackend,
    NumpyBackend,
    OracleCounters,
    make_backend,
    mpmath_backend,
    resolve_backend_name,
)
from repro.service.server import create_server

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=8, n_test=8)

SQRT_SUB = "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"

#: Curated benchmarks covering cancellation, transcendentals, domain
#: errors (sqrt/log of negatives during sampling) and fabs preconditions.
EQUIVALENCE_CORES = (
    "sqrt-sub", "quad-minus", "cos-frac", "acoth", "expm1-naive",
)

#: Adversarial inputs: every sign/zero/inf/NaN corner plus magnitudes
#: that overflow intermediates or underflow outward rounding.
SPECIALS = (
    0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300, -1e300, 1e-300, 5e-324,
    -5e-324, 710.0, -745.0, math.inf, -math.inf, math.nan,
    1.7976931348623157e308, 2.2250738585072014e-308,
)

REAL_EXPRS = (
    "(- (sqrt (+ x 1)) (sqrt x))",
    "(/ (sin x) x)",
    "(log (+ 1 x))",
    "(* x y)",
    "(/ (+ x y) (- x y))",
    "(hypot x y)",
    "(pow x y)",
    "(atan2 x y)",
    "(fmod x y)",
    "(if (< x y) (- y x) (- x y))",
)

BOOL_EXPRS = (
    "(< 0.1 x 10)",
    "(and (< 1e-12 (fabs x)) (< (fabs x) 100))",
    "(or (< x 0) (> y 1))",
    "(== x y)",
    "(<= (sqrt x) y)",
    # A non-integer literal is an interval on the ladder, never a point.
    "(== x 0.5)",
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _key(result) -> tuple:
    """Comparable identity of one PointResult (bit-exact for ok values)."""
    return (result.status, _bits(result.value) if result.ok else None)


def _sample_key(samples) -> tuple:
    points = tuple(
        tuple(sorted((k, _bits(v)) for k, v in point.items()))
        for point in samples.train + samples.test
    )
    exacts = tuple(_bits(v) for v in samples.train_exact + samples.test_exact)
    return (points, exacts, samples.acceptance, len(samples.train))


class TestBatchEquivalence:
    """NumpyBackend vs the reference ladder, point by point."""

    def _points(self, names):
        points = [
            {name: special for name in names} for special in SPECIALS
        ]
        points += [
            dict(zip(names, combo))
            for combo in zip(SPECIALS, reversed(SPECIALS))
        ]
        import random

        rng = random.Random(7)
        points += [
            {name: rng.uniform(-50, 50) for name in names} for _ in range(40)
        ]
        return points

    @pytest.mark.parametrize("source", REAL_EXPRS)
    def test_real_exprs_bit_identical(self, source):
        expr = parse_expr(source)
        names = sorted(expr.free_vars())
        points = self._points(names)
        fast = make_backend("numpy")
        reference = make_backend("mpmath")
        got = fast.eval_batch(expr, points, F64)
        want = reference.eval_batch(expr, points, F64)
        assert [_key(r) for r in got] == [_key(r) for r in want]

    @pytest.mark.parametrize("source", BOOL_EXPRS)
    def test_bool_exprs_identical(self, source):
        expr = parse_expr(source)
        names = sorted(expr.free_vars())
        points = self._points(names)
        fast = make_backend("numpy")
        reference = make_backend("mpmath")
        got = fast.eval_bool_batch(expr, points)
        want = reference.eval_bool_batch(expr, points)
        assert [_key(r) for r in got] == [_key(r) for r in want]

    def test_f32_rounding_matches(self):
        expr = parse_expr("(- (sqrt (+ x 1)) (sqrt x))")
        points = [{"x": 0.1 * i + 0.05} for i in range(64)]
        got = make_backend("numpy").eval_batch(expr, points, F32)
        want = make_backend("mpmath").eval_batch(expr, points, F32)
        assert [_key(r) for r in got] == [_key(r) for r in want]

    def test_unsupported_operator_agrees_with_ladder(self):
        # `erf` has no vectorized implementation; the numpy backend must
        # delegate the whole batch to the ladder, not reject it itself,
        # so its results (and counters) track the reference exactly.
        expr = parse_expr("(erf x)", known_ops={"erf"})
        points = [{"x": 0.25 * i} for i in range(8)]
        fast = make_backend("numpy")
        got = fast.eval_batch(expr, points, F64)
        want = make_backend("mpmath").eval_batch(expr, points, F64)
        assert [_key(r) for r in got] == [_key(r) for r in want]
        assert fast.counters().batch_points >= len(points)

    def test_missing_variable_is_invalid_everywhere(self):
        expr = parse_expr("(+ x y)")
        cond = parse_expr("(< x y)")
        points = [{"x": 1.0}] * 3
        for name in ("numpy", "mpmath"):
            backend = make_backend(name)
            results = backend.eval_batch(expr, points, F64)
            assert [r.status for r in results] == ["invalid"] * 3
            verdicts = backend.eval_bool_batch(cond, points)
            assert [r.status for r in verdicts] == ["invalid"] * 3
            counters = backend.counters()
            assert counters.batch_points == 6
            assert (
                counters.fastpath_hits + counters.escalated_points
                == counters.batch_points
            )

    def test_condition_floor_nests_ladder_enclosures(self):
        # From x = 2**77 on, the ladder's 80-bit enclosure of
        # (+ x 1) - x straddles 0, so its first rung raises DomainError
        # inside the condition; the dd enclosure alone stays error-free
        # up to 2**99, and only the condition floor makes it escalate.
        expr = parse_expr("(< (log (- (+ x 1) x)) 1)")
        points = [{"x": 2.0 ** k} for k in range(60, 111)]
        fast = make_backend("numpy")
        got = fast.eval_bool_batch(expr, points)
        want = make_backend("mpmath").eval_bool_batch(expr, points)
        assert want[90 - 60].status == "domain-error"
        assert [_key(r) for r in got] == [_key(r) for r in want]
        assert fast.counters().fastpath_hits > 0


class TestSamplerEquivalence:
    """sample_core must be bit-identical for any backend choice."""

    @pytest.mark.parametrize("name", EQUIVALENCE_CORES)
    def test_curated_cores(self, name):
        core = core_named(name)
        config = SampleConfig(n_train=16, n_test=16)
        reference = sample_core(core, config, oracle=make_backend("mpmath"))
        fast = sample_core(core, config, oracle=make_backend("numpy"))
        assert _sample_key(fast) == _sample_key(reference)

    @pytest.mark.parametrize(
        "seed, precision",
        # The binary64 cases keep their bare-seed ids.
        [pytest.param(seed, F64, id=str(seed)) for seed in range(6)]
        + [
            pytest.param(seed, fmt, id=f"{seed}-{fmt}")
            for fmt in (F32, "fp16", "bf16")
            for seed in range(6)
        ],
    )
    def test_generated_cores_property(self, seed, precision):
        core = dataclasses.replace(
            generate_core(seed, n_vars=2, depth=4), precision=precision
        )
        config = SampleConfig(n_train=12, n_test=12)
        reference = sample_core(core, config, oracle=make_backend("mpmath"))
        fast = sample_core(core, config, oracle=make_backend("numpy"))
        assert _sample_key(fast) == _sample_key(reference)

    def test_fastpath_actually_used(self):
        core = core_named("sqrt-sub")
        oracle = make_backend("numpy")
        sample_core(core, SampleConfig(n_train=32, n_test=32), oracle=oracle)
        counters = oracle.counters()
        assert counters.batch_points > 0
        assert counters.fastpath_hits > 0
        assert (
            counters.fastpath_hits + counters.escalated_points
            == counters.batch_points
        )


class TestBackendSelection:
    def test_auto_resolves_to_numpy(self):
        assert resolve_backend_name("auto") == "numpy"
        assert resolve_backend_name("NumPy") == "numpy"

    def test_unknown_name_rejected(self):
        # "pool" named a backend that no longer exists; it must not fall
        # back silently to another one.
        for name in ("cuda", "pool"):
            with pytest.raises(ValueError, match="unknown oracle backend"):
                resolve_backend_name(name)

    def test_environment_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE_BACKEND", "mpmath")
        assert resolve_backend_name() == "mpmath"
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        assert session.oracle_backend == "mpmath"
        assert isinstance(session.oracle, MpmathBackend)

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE_BACKEND", "mpmath")
        session = ChassisSession(
            config=FAST, sample_config=SAMPLES, oracle_backend="numpy"
        )
        assert session.oracle_backend == "numpy"
        assert isinstance(session.oracle, NumpyBackend)

    def test_session_rejects_unknown_backend(self, monkeypatch):
        for name in ("quantum", "pool"):
            with pytest.raises(ValueError, match="unknown oracle backend"):
                ChassisSession(oracle_backend=name)
            monkeypatch.setenv("REPRO_ORACLE_BACKEND", name)
            with pytest.raises(ValueError, match="unknown oracle backend"):
                ChassisSession(config=FAST, sample_config=SAMPLES)

    def test_all_names_constructible(self):
        assert BACKEND_NAMES == ("numpy", "mpmath")
        for name in BACKEND_NAMES:
            backend = make_backend(name)
            assert backend.name == name


class TestSessionIntegration:
    @pytest.mark.parametrize("backend", ("mpmath", "numpy"))
    def test_compile_payload_identical_across_backends(self, backend):
        reference = ChassisSession(
            config=FAST, sample_config=SAMPLES, oracle_backend="mpmath"
        )
        other = ChassisSession(
            config=FAST, sample_config=SAMPLES, oracle_backend=backend
        )
        want, _ = reference.compile_payload(SQRT_SUB, "c99")
        got, _ = other.compile_payload(SQRT_SUB, "c99")
        # Everything but wall-clock time must match byte for byte.
        want.pop("elapsed"), got.pop("elapsed")
        assert got == want

    def test_health_reports_backend_and_counters(self):
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        session.compile(SQRT_SUB, "c99")
        oracle = session.health()["oracle"]
        assert oracle["backend"] == session.oracle_backend
        assert oracle["evals"] > 0
        assert oracle["batch_points"] > 0
        assert oracle["fastpath_hits"] + oracle["escalated_points"] == (
            oracle["batch_points"]
        )

    def test_batch_metrics_exposed(self):
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        session.samples_for(session.parse(SQRT_SUB))
        server = create_server(session)
        try:
            text = METRICS.exposition()
        finally:
            server.server_close()
        counters = session.oracle_counters()
        assert counters.batch_points > 0
        assert _gauge(text, "repro_oracle_batch_points") == counters.batch_points
        assert (
            _gauge(text, "repro_oracle_fastpath_points") == counters.fastpath_hits
        )
        assert (
            _gauge(text, "repro_oracle_ladder_points")
            == counters.escalated_points
        )
        # Backends bump no series of their own: nobody scrapes a pool
        # worker's registry.
        for removed in (
            "repro_oracle_fastpath_hits",
            "repro_oracle_rung_points",
            "repro_oracle_batch_size",
        ):
            assert removed not in text


class TestCounterFolding:
    def test_outcome_counters_fold_into_stats(self):
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        specs = [(session.parse(SQRT_SUB), "c99")]
        [outcome] = session.compile_many(specs)
        assert outcome.ok
        assert outcome.oracle is not None
        assert outcome.oracle["evals"] > 0
        assert session.stats.rival.evals == outcome.oracle["evals"]
        # The per-job backend is separate from the session's; health
        # must include the folded counts.
        assert session.health()["oracle"]["evals"] >= outcome.oracle["evals"]

    def test_merge_ignores_unknown_keys(self):
        counters = OracleCounters()
        counters.merge({"evals": 3, "from_the_future": 9})
        assert counters.evals == 3 and counters.any()

    def test_pooled_jobs_identical_to_serial(self):
        serial = ChassisSession(
            config=FAST, sample_config=SAMPLES, jobs=1
        )
        specs = [
            (serial.parse(SQRT_SUB), "c99"),
            (core_named("cos-frac"), "c99"),
        ]
        def scrub(payload):
            return {k: v for k, v in payload.items() if k != "elapsed"}

        want = [scrub(o.payload) for o in serial.compile_many(specs)]
        with ChassisSession(
            config=FAST, sample_config=SAMPLES, jobs=2
        ) as pooled:
            outcomes = pooled.compile_many(specs)
            got = [scrub(o.payload) for o in outcomes]
            assert got == want
            assert any(o.oracle for o in outcomes)
            assert pooled.stats.rival.evals > 0



#: ``/health`` ``oracle`` totals of one default-config compile of
#: ``sqrt-sub`` on c99, per backend; the same inline and on a pool.
PINNED_SQRT_SUB_COUNTS = {
    "numpy": {
        "evals": 26, "escalations": 5, "batch_calls": 16,
        "batch_points": 736, "fastpath_hits": 710, "escalated_points": 26,
        "rungs": {"dd_hits": 710, "ladder_points": 26},
    },
    "mpmath": {
        "evals": 480, "escalations": 13, "batch_calls": 16,
        "batch_points": 736, "fastpath_hits": 0, "escalated_points": 736,
        "rungs": {"dd_hits": 0, "ladder_points": 736},
    },
}


def _gauge(text: str, name: str) -> float:
    [line] = [line for line in text.splitlines() if line.startswith(name + " ")]
    return float(line.split()[1])


def _oracle_series(text: str) -> dict[str, float]:
    """Each oracle series' total over all its label sets."""
    names = (
        "repro_oracle_evals", "repro_oracle_batch_points",
        "repro_oracle_fastpath_points", "repro_oracle_ladder_points",
    )
    totals = dict.fromkeys(names, 0.0)
    for line in text.splitlines():
        name = line.split("{")[0].split(" ")[0]
        if name in totals:
            totals[name] += float(line.split()[-1])
    return totals


class TestOracleCounts:
    """Every oracle count lives in a backend's ``OracleCounters``; the
    totals a compile reports must not move when the code that carries
    them does."""

    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("backend", ("numpy", "mpmath"))
    def test_pinned_health_and_metrics_totals(self, backend, jobs):
        with ChassisSession(jobs=jobs, oracle_backend=backend) as session:
            session.compile(core_named("sqrt-sub"), "c99")
            oracle = session.health()["oracle"]
            assert oracle.pop("backend") == backend
            assert oracle == PINNED_SQRT_SUB_COUNTS[backend]
            # The session backend holds exactly an inline job's sample
            # draw (a pooled job samples in its worker); the job's own
            # backend ships the rest home in ``stats.rival``.
            draw = make_backend(backend)
            if jobs == 1:
                sample_core(core_named("sqrt-sub"), SampleConfig(), oracle=draw)
            assert session.oracle.counters() == draw.counters()
            own = session.oracle.counters().evals
            assert session.stats.rival.evals == oracle["evals"] - own
            server = create_server(session)
            try:
                text = METRICS.exposition()
            finally:
                server.server_close()
            assert _gauge(text, "repro_oracle_evals") == oracle["evals"]
            assert (
                _gauge(text, "repro_oracle_fastpath_points")
                == oracle["fastpath_hits"]
            )

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_metrics_read_what_health_reads(self, jobs):
        """``/metrics`` oracle series move by what ``/health`` reports,
        pooled jobs included (a worker's own registry is never read)."""
        with ChassisSession(
            config=FAST, sample_config=SAMPLES, jobs=jobs
        ) as session:
            server = create_server(session)
            try:
                before = _oracle_series(METRICS.exposition())
                sqrt_sub = session.parse(SQRT_SUB)
                outcomes = session.compile_many([
                    (sqrt_sub, "c99"), (sqrt_sub, "avx"),
                    (core_named("cos-frac"), "c99"),
                ])
                after = _oracle_series(METRICS.exposition())
            finally:
                server.server_close()
            assert all(o.ok for o in outcomes)
            oracle = session.health()["oracle"]
        assert oracle["batch_points"] > 0
        assert {name: after[name] - before[name] for name in after} == {
            "repro_oracle_evals": oracle["evals"],
            "repro_oracle_batch_points": oracle["batch_points"],
            "repro_oracle_fastpath_points": oracle["fastpath_hits"],
            "repro_oracle_ladder_points": oracle["rungs"]["ladder_points"],
        }

    def test_deadline_mid_ladder_still_counts(self, monkeypatch):
        """A deadline that fires inside a ladder batch propagates, and the
        points evaluated before it are counted."""
        calls = []

        def fires_on_fourth_point():
            calls.append(None)
            if len(calls) == 4:
                raise DeadlineExceeded("test deadline")

        monkeypatch.setattr(mpmath_backend, "check_deadline", fires_on_fourth_point)
        backend = MpmathBackend()
        # Cancellation: each point settles above the first rung.
        expr = parse_expr("(- (+ x 1) x)")
        points = [{"x": 1e30 * (k + 1)} for k in range(10)]
        with pytest.raises(DeadlineExceeded):
            backend.eval_batch(expr, points)
        counters = backend.counters()
        assert (counters.evals, counters.escalations) == (3, 3)
        # The cut batch is still recorded whole, so the ladder never shows
        # more evals than points sent to it.
        assert counters.batch_calls == 1
        assert counters.batch_points == counters.escalated_points == 10
        monkeypatch.undo()
        results = backend.eval_batch(expr, points[:3])
        assert [r.status for r in results] == [OK] * 3
        counters = backend.counters()
        assert counters.evals == 6
        assert counters.evals <= counters.escalated_points == 13

    def test_deadline_mid_residue_still_counts_the_batch(self, monkeypatch):
        """On the numpy backend, a deadline inside the ladder residue
        records the batch with its dd and ladder split."""
        calls = []

        def fires_on_third_point():
            calls.append(None)
            if len(calls) == 3:
                raise DeadlineExceeded("test deadline")

        monkeypatch.setattr(mpmath_backend, "check_deadline", fires_on_third_point)
        backend = make_backend("numpy")
        expr = parse_expr("(- (+ x 1) x)")
        # The dd rung settles the first four points; the rest need the ladder.
        points = [{"x": 1.5 * (k + 1)} for k in range(4)]
        points += [{"x": 1e30 * (k + 1)} for k in range(6)]
        with pytest.raises(DeadlineExceeded):
            backend.eval_batch(expr, points)
        counters = backend.counters()
        assert counters.evals == 2
        assert (counters.batch_calls, counters.batch_points) == (1, 10)
        assert (counters.fastpath_hits, counters.escalated_points) == (4, 6)
