"""Tests for the batch compilation service: cache, scheduler, serialization."""

import json

import pytest

from repro.accuracy import SampleConfig
from repro.api import ChassisSession
from repro.benchsuite import core_named
from repro.cli import main
from repro.core import CompileConfig
from repro.core.pipeline import compile_core
from repro.service import (
    CompileCache,
    core_fingerprint,
    job_fingerprint,
    result_from_dict,
    result_to_dict,
    target_fingerprint,
)
from repro.targets import get_target

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=12, n_test=12)


@pytest.fixture(scope="module")
def sqrt_sub():
    return core_named("sqrt-sub")


@pytest.fixture(scope="module")
def compiled(sqrt_sub, c99):
    return compile_core(sqrt_sub, c99, FAST, SAMPLES)


class TestSerialization:
    def test_round_trip_scores_identical(self, compiled, c99):
        data = result_to_dict(compiled)
        rebuilt = result_from_dict(json.loads(json.dumps(data)), c99)
        original = [(c.cost, c.error, c.program) for c in compiled.frontier]
        restored = [(c.cost, c.error, c.program) for c in rebuilt.frontier]
        assert original == restored

    def test_round_trip_input_and_samples(self, compiled, c99):
        rebuilt = result_from_dict(result_to_dict(compiled), c99)
        assert rebuilt.input_candidate.program == compiled.input_candidate.program
        assert rebuilt.input_candidate.error == compiled.input_candidate.error
        assert rebuilt.samples.test == compiled.samples.test
        assert rebuilt.samples.test_exact == compiled.samples.test_exact

    def test_round_trip_core(self, compiled, c99):
        rebuilt = result_from_dict(result_to_dict(compiled), c99)
        assert rebuilt.core.body == compiled.core.body
        assert rebuilt.core.pre == compiled.core.pre
        assert rebuilt.core.arguments == compiled.core.arguments

    def test_wrong_target_rejected(self, compiled, arith):
        with pytest.raises(ValueError):
            result_from_dict(result_to_dict(compiled), arith)

    def test_awkward_names_survive_transport(self):
        """Names with spaces/parens (common in Herbie corpora) round-trip."""
        from repro.ir import parse_fpcore
        from repro.service.results import core_from_source, core_to_source

        for name in ("sin(x) / x", "a b"):
            core = parse_fpcore(
                f'(FPCore (x) :name "{name}" :pre (< 0.1 x 1) (+ x 1))'
            )
            assert core.name == name
            rebuilt = core_from_source(core_to_source(core))
            assert rebuilt.body == core.body
            assert rebuilt.name == name
            assert core_fingerprint(rebuilt) == core_fingerprint(core)


class TestFingerprints:
    def test_stable_for_same_inputs(self, sqrt_sub, c99):
        a = job_fingerprint(sqrt_sub, c99, FAST, SAMPLES)
        b = job_fingerprint(sqrt_sub, c99, FAST, SAMPLES)
        assert a == b

    def test_changes_with_config(self, sqrt_sub, c99):
        other = CompileConfig(iterations=3, localize_points=6, max_variants=12)
        assert job_fingerprint(sqrt_sub, c99, FAST, SAMPLES) != job_fingerprint(
            sqrt_sub, c99, other, SAMPLES
        )

    def test_changes_with_sample_seed(self, sqrt_sub, c99):
        other = SampleConfig(n_train=12, n_test=12, seed=99)
        assert job_fingerprint(sqrt_sub, c99, FAST, SAMPLES) != job_fingerprint(
            sqrt_sub, c99, FAST, other
        )

    def test_changes_with_target(self, sqrt_sub, c99, arith):
        assert job_fingerprint(sqrt_sub, c99, FAST, SAMPLES) != job_fingerprint(
            sqrt_sub, arith, FAST, SAMPLES
        )

    def test_target_cost_change_invalidates(self, c99):
        retuned = c99.extend(c99.name, override_costs={"add.f64": 999.0})
        assert target_fingerprint(c99) != target_fingerprint(retuned)

    def test_anonymous_cores_do_not_collide(self):
        from repro.ir import parse_fpcore

        a = parse_fpcore("(FPCore (x) (+ x 1))")
        b = parse_fpcore("(FPCore (x) (+ x 2))")
        assert a.name == b.name == ""
        assert core_fingerprint(a) != core_fingerprint(b)


def _store(cache, compiled, config=FAST):
    """Store ``compiled`` under its job fingerprint; returns the key."""
    key = job_fingerprint(compiled.core, compiled.target, config, SAMPLES)
    cache.put(key, result_to_dict(compiled))
    return key


class TestCompileCache:
    def test_store_load_round_trip(self, tmp_path, compiled):
        cache = CompileCache(tmp_path)
        key = _store(cache, compiled)
        payload = cache.get(
            job_fingerprint(compiled.core, compiled.target, FAST, SAMPLES)
        )
        assert payload is not None
        loaded = result_from_dict(payload, compiled.target)
        assert [(c.cost, c.error) for c in loaded.frontier] == [
            (c.cost, c.error) for c in compiled.frontier
        ]
        assert cache.stats.hits == 1 and cache.stats.stores == 1
        assert len(key) == 64

    def test_miss_on_different_config(self, tmp_path, compiled):
        cache = CompileCache(tmp_path)
        _store(cache, compiled)
        other = CompileConfig(iterations=5)
        key = job_fingerprint(compiled.core, compiled.target, other, SAMPLES)
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_miss_on_different_target(self, tmp_path, compiled, arith):
        cache = CompileCache(tmp_path)
        _store(cache, compiled)
        key = job_fingerprint(compiled.core, arith, FAST, SAMPLES)
        assert cache.get(key) is None

    def test_corrupt_entry_invalidated(self, tmp_path, compiled):
        cache = CompileCache(tmp_path)
        key = _store(cache, compiled)
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None
        assert cache.stats.invalidations == 1
        assert not path.exists()

    def test_stale_schema_invalidated(self, tmp_path, compiled):
        cache = CompileCache(tmp_path)
        key = _store(cache, compiled)
        payload = json.loads(cache._path(key).read_text())
        payload["schema"] = -1
        cache._path(key).write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert cache.stats.invalidations == 1

    def test_stored_bytes_are_the_default_encoding(self, tmp_path, compiled):
        # A stored entry is exactly ``json.dumps(payload)``: the same bytes
        # ``json.dump`` wrote, from the C encoder.
        cache = CompileCache(tmp_path)
        key = _store(cache, compiled)
        payload = result_to_dict(compiled)
        assert cache._path(key).read_bytes() == json.dumps(payload).encode()

    def test_clear(self, tmp_path, compiled):
        cache = CompileCache(tmp_path)
        _store(cache, compiled)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


def _payload_no_elapsed(outcome):
    data = dict(outcome.payload)
    data.pop("elapsed", None)
    return json.dumps(data, sort_keys=True)


def session_batch(specs, jobs=1, cache=None, timeout=None):
    """One ``compile_many`` call on a fresh ``jobs``-wide session."""
    with ChassisSession(
        config=FAST, sample_config=SAMPLES, jobs=jobs, cache=cache,
        timeout=timeout,
    ) as session:
        return session.compile_many(specs)


class TestCompileMany:
    SPECS_TARGETS = ("c99", "arith")

    def _specs(self):
        cores = [core_named("sqrt-sub"), core_named("logistic")]
        return [(c, t) for t in self.SPECS_TARGETS for c in cores]

    def test_serial_parallel_identical(self):
        """--jobs 1 and --jobs 4 must produce identical results."""
        serial = session_batch(self._specs(), jobs=1)
        parallel = session_batch(self._specs(), jobs=4)
        assert [o.status for o in serial] == [o.status for o in parallel]
        for a, b in zip(serial, parallel):
            assert _payload_no_elapsed(a) == _payload_no_elapsed(b)

    def test_warm_cache_all_hits(self, tmp_path):
        cache = CompileCache(tmp_path)
        cold = session_batch(self._specs(), jobs=2, cache=cache)
        assert all(o.ok and not o.cached for o in cold)
        assert cache.stats.stores == len(cold)
        warm = session_batch(self._specs(), jobs=2, cache=cache)
        assert all(o.ok and o.cached for o in warm)
        assert cache.stats.hits == len(warm)
        for a, b in zip(cold, warm):
            assert _payload_no_elapsed(a) == _payload_no_elapsed(b)

    def test_failure_captured_not_swallowed(self, tmp_path):
        from repro.ir import parse_fpcore

        # An unsatisfiable precondition -> SamplingError, recorded per job.
        bad = parse_fpcore("(FPCore nopoints (x) :pre (and (< 2 x) (< x 1)) x)")
        outcomes = session_batch(
            [(bad, "arith"), (core_named("sqrt-sub"), "arith")],
            cache=CompileCache(tmp_path),
        )
        assert outcomes[0].status == "failed"
        assert outcomes[0].error_type == "SamplingError"
        assert outcomes[1].ok
        # failures are never cached
        assert CompileCache(tmp_path).get(outcomes[0].fingerprint) is None

    def test_timeout_enforced(self):
        import signal

        if not hasattr(signal, "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")
        outcomes = session_batch([(core_named("sqrt-sub"), "c99")], timeout=0.01)
        assert outcomes[0].status == "timeout"
        assert outcomes[0].error_type == "JobTimeout"
        assert outcomes[0].payload is None

    def test_deterministic_ordering(self):
        outcomes = session_batch(self._specs(), jobs=3)
        assert [o.index for o in outcomes] == list(range(len(self._specs())))

    def test_custom_target_runs_inline(self, c99):
        custom = c99.extend("c99-retuned", override_costs={"add.f64": 7.0})
        with ChassisSession(config=FAST, sample_config=SAMPLES, jobs=4) as session:
            outcomes = session.compile_many([(core_named("sqrt-sub"), custom)])
            assert session.pool_info()["generation"] == 0  # no worker started
        assert outcomes[0].ok
        assert outcomes[0].target == "c99-retuned"

    def test_result_rescoreable(self):
        """Deserialized frontiers are real exprs that can be re-scored."""
        from repro.accuracy.scoring import score_program

        (outcome,) = session_batch([(core_named("sqrt-sub"), "c99")])
        result = outcome.result
        best = result.frontier.best_error()
        rescored = score_program(
            best.program,
            result.target,
            result.samples.test,
            result.samples.test_exact,
            result.core.precision,
        )
        assert rescored == pytest.approx(best.error)


class TestClockIndependentCompile:
    """A compile's result never depends on the clock: under a clock that
    jumps 1000 s per read, an inline compile returns the same payload and
    is cached as usual."""

    def test_inline_compile_same_payload_and_stored(self, tmp_path,
                                                    jumping_clock):
        core = core_named("sqrt-sub")
        with ChassisSession(config=FAST, sample_config=SAMPLES) as session:
            steady, _cached = session.compile_payload(core, "c99")
        jumping_clock()
        with ChassisSession(
            config=FAST, sample_config=SAMPLES, cache=CompileCache(tmp_path),
        ) as session:
            jumped, cached = session.compile_payload(core, "c99")
            assert not cached
            assert session.last_provenance()["record"]["cache"] == "store"
            assert len(session.cache) == 1
        steady.pop("elapsed")
        jumped.pop("elapsed")
        assert jumped == steady


class TestBatchCLI:
    def test_reports_identical_and_warm_cache(self, tmp_path, capsys):
        args = [
            "batch", "sqrt-sub", "logistic", "--targets", "c99,arith",
            "--iterations", "1", "--points", "12", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        r1 = tmp_path / "r1.jsonl"
        r2 = tmp_path / "r2.jsonl"
        assert main(args + ["--jobs", "2", "--report", str(r1)]) == 0
        cold_out = capsys.readouterr().out
        assert "compiled=4 cached=0" in cold_out
        assert main(args + ["--jobs", "1", "--report", str(r2)]) == 0
        warm_out = capsys.readouterr().out
        # second run: zero recompilations, all hits, stats reported
        assert "compiled=0 cached=4" in warm_out
        assert "4 hits, 0 misses" in warm_out
        assert r1.read_text() == r2.read_text()
        rows = [json.loads(line) for line in r1.read_text().splitlines()]
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        assert all("frontier" in r and "fingerprint" in r for r in rows)

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["batch", "sqrt-sub", "--targets", "nonesuch"])

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(SystemExit):
            main(["batch", "sqrt-sub", "--targets", "c99", "--timeout", "0"])

    def test_exit_1_when_nothing_succeeds(self, tmp_path, capsys):
        bad = tmp_path / "bad.fpcore"
        bad.write_text("(FPCore nopoints (x) :pre (and (< 2 x) (< x 1)) x)")
        code = main([
            "batch", str(bad), "--targets", "c99",
            "--iterations", "1", "--points", "8", "--quiet",
        ])
        assert code == 1
        assert "ok=0 failed=1" in capsys.readouterr().out

    def test_awkward_benchmark_name_through_pool(self, tmp_path, capsys):
        src = tmp_path / "odd.fpcore"
        src.write_text(
            '(FPCore (x) :name "sin(x) / x" :pre (< 0.1 x 1) (+ (* x x) 1))\n'
            '(FPCore (x) :name "a b" :pre (< 0.1 x 1) (- (* x x) 1))\n'
        )
        report = tmp_path / "r.jsonl"
        assert main([
            "batch", str(src), "--targets", "c99", "--jobs", "2",
            "--iterations", "1", "--points", "8", "--quiet",
            "--report", str(report),
        ]) == 0
        rows = [json.loads(l) for l in report.read_text().splitlines()]
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert [r["benchmark"] for r in rows] == ["sin(x) / x", "a b"]

    def test_compile_json_flag(self, capsys):
        assert main([
            "compile", "sqrt-sub", "--target", "c99",
            "--iterations", "1", "--points", "8", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["target"] == "c99"
        assert payload["frontier"] and "program" in payload["frontier"][0]


class TestExperimentConfigService:
    def test_runners_share_cache(self, tmp_path, c99):
        """A second runner invocation is served entirely from the cache."""
        from repro.experiments import ExperimentConfig, run_cost_model_study

        cache = CompileCache(tmp_path)
        config = ExperimentConfig(FAST, SAMPLES, jobs=1, cache=cache)
        cores = [core_named("sqrt-sub")]
        first = run_cost_model_study(cores, [c99], config)
        assert cache.stats.stores == 1
        second = run_cost_model_study(cores, [c99], config)
        assert cache.stats.hits == 1
        assert [(p.estimated_cost, p.run_time) for p in first] == [
            (p.estimated_cost, p.run_time) for p in second
        ]
