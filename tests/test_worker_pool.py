"""The session-owned persistent worker pool: reuse, routing, accounting.

Pins down the amortization contract from the roadmap: consecutive batches
(including serve ``/batch`` requests) must reuse the *same* warm worker
processes instead of rebuilding a pool per call, ``submit`` must route
registry-target jobs through those workers, and batch outcomes must land
in the session stats ``/health`` reports.
"""

import gc
import json
import multiprocessing
import threading
import urllib.request

import pytest

from repro.accuracy.sampler import SampleConfig
from repro.api import ChassisSession, CompileConfig, WorkerPool, create_server
from repro.benchsuite import core_named

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=8, n_test=8)

SRC = "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"
SRC2 = "(FPCore g (x) :pre (< 0.1 x 1) (+ (* x x) 1))"


@pytest.fixture(scope="module")
def pool_session():
    session = ChassisSession(config=FAST, sample_config=SAMPLES, jobs=2)
    yield session
    session.close()


class TestPoolReuse:
    def test_consecutive_batches_reuse_worker_pids(self, pool_session):
        specs = [(core_named("sqrt-sub"), "c99"), (core_named("logistic"), "c99")]
        first = pool_session.compile_many(specs)
        pool = pool_session.worker_pool()
        assert pool is not None
        pids = pool.worker_pids()
        generation = pool.generation
        assert len(pids) == 2 and generation == 1
        second = pool_session.compile_many(
            [(core_named("sqrt-sub"), "arith"), (core_named("logistic"), "arith")]
        )
        assert all(o.ok for o in first + second)
        # same processes, no rebuild: the whole point of the pool
        assert pool.worker_pids() == pids
        assert pool.generation == generation

    def test_single_job_batches_use_the_warm_pool(self, pool_session):
        """With warm workers there is no 'too small to pool' batch."""
        pool = pool_session.worker_pool()
        generation = pool.generation
        (outcome,) = pool_session.compile_many([(core_named("logistic"), "fdlibm")])
        assert outcome.ok
        assert pool.generation == generation  # reused, not rebuilt

    def test_pooled_submit_runs_in_worker_processes(self, pool_session):
        handles = [
            pool_session.submit(core_named("sqrt-sub"), "vdt"),
            pool_session.submit(core_named("logistic"), "vdt"),
        ]
        results = [handle.result(timeout=300) for handle in handles]
        assert all(len(result.frontier) > 0 for result in results)
        assert all(handle.poll() == "ok" for handle in handles)

    def test_config_change_reuses_the_pool(self, pool_session):
        """Configs ride on each job, so a different knob must not re-fork
        the workers (from a possibly multi-threaded caller)."""
        pool = pool_session.worker_pool()
        pids, generation = pool.worker_pids(), pool.generation
        other = CompileConfig(iterations=0, localize_points=6, max_variants=12)
        (outcome,) = pool_session.compile_many(
            [(core_named("sqrt-sub"), "c99")], config=other
        )
        assert outcome.ok
        pool_session.compile(
            core_named("logistic"), "c99",
            sample_config=SampleConfig(n_train=12, n_test=12),
        )
        assert pool.worker_pids() == pids
        assert pool.generation == generation

    def test_jobs_1_session_has_no_pool(self):
        session = ChassisSession(config=FAST, sample_config=SAMPLES, jobs=1)
        assert session.worker_pool() is None
        assert session.pool_info() is None

    def test_lazy_creation(self):
        session = ChassisSession(config=FAST, sample_config=SAMPLES, jobs=2)
        pool = session.worker_pool()
        assert pool is not None
        # no batch has run: no processes yet
        assert pool.worker_pids() == [] and pool.generation == 0
        session.close()

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(2)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.run_batch([])


class TestStatsAccounting:
    def test_batch_outcomes_fold_into_session_stats(self, tmp_path):
        """compile() and compile_many() must agree on /health accounting;
        batch failures and cache hits used to be invisible."""
        from repro.ir import parse_fpcore

        session = ChassisSession(
            config=FAST, sample_config=SAMPLES, cache=str(tmp_path)
        )
        bad = parse_fpcore("(FPCore nopoints (x) :pre (and (< 2 x) (< x 1)) x)")
        outcomes = session.compile_many(
            [(core_named("sqrt-sub"), "arith"), (bad, "arith")]
        )
        assert [o.status for o in outcomes] == ["ok", "failed"]
        assert session.stats.compiles == 1
        assert session.stats.failures == 1
        # a warm repeat is a cache hit in the same counters /compile uses
        session.compile_many([(core_named("sqrt-sub"), "arith")])
        assert session.stats.cache_hits == 1
        assert session.stats.batches == 2
        session.close()

    def test_duplicate_concurrent_sampling_samples_once(self):
        """samples_for re-checks the LRU under the fingerprint's gate, so
        a contended duplicate records a hit instead of re-sampling."""
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        core = core_named("sqrt-sub")
        barrier = threading.Barrier(4)
        results = []

        def sample():
            barrier.wait()
            results.append(session.samples_for(core))

        threads = [threading.Thread(target=sample) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(results) == 4
        assert all(r is results[0] for r in results)  # one shared SampleSet
        # exactly one oracle run: every miss beyond the first was converted
        # to a hit by the double-check (hits + misses == 4 + 1 - 1... the
        # invariant that matters: misses recorded, but only one sampling)
        assert session.stats.sample_hits + session.stats.sample_misses >= 4
        assert len(session._samples) == 1
        assert session._sample_gates == {}

    def test_failed_sampling_releases_its_gate(self):
        """A SamplingError or DeadlineExceeded must not leave the
        fingerprint's gate behind in the session."""
        from repro.accuracy.sampler import SamplingError
        from repro.deadline import DeadlineExceeded
        from repro.ir import parse_fpcore

        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        for bound in (1, 2, 3):
            bad = parse_fpcore(
                f"(FPCore nopoints{bound} (x) "
                f":pre (and (< {bound + 1} x) (< x {bound})) x)"
            )
            with pytest.raises(SamplingError):
                session.samples_for(bad)
        with pytest.raises(DeadlineExceeded):
            session.samples_for(core_named("sqrt-sub"), timeout=1e-9)
        assert session._sample_gates == {}
        assert len(session._samples) == 0


class TestKeepaliveEviction:
    def test_fingerprint_caches_do_not_retain_dead_targets(self, c99):
        from repro.service.cache import _TARGET_FP_CACHE, target_fingerprint
        from repro.targets.target import _IMPL_CACHE

        custom = c99.extend("c99-transient", override_costs={"add.f64": 3.0})
        key = id(custom)
        target_fingerprint(custom)
        custom.impl_registry()
        assert key in _TARGET_FP_CACHE and key in _IMPL_CACHE
        del custom
        gc.collect()
        assert key not in _TARGET_FP_CACHE
        assert key not in _IMPL_CACHE

    def test_session_simulator_cache_evicts_with_target(self, c99):
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        custom = c99.extend("c99-transient-2", override_costs={"mul.f64": 9.0})
        key = id(custom)
        simulator = session.simulator(custom)
        assert key in session._simulators
        assert simulator.target is custom  # weak back-reference, still live
        del custom
        gc.collect()
        assert key not in session._simulators

    def test_registry_targets_stay_cached(self, c99):
        from repro.service.cache import _TARGET_FP_CACHE, target_fingerprint

        fingerprint = target_fingerprint(c99)
        gc.collect()
        assert _TARGET_FP_CACHE[id(c99)] == fingerprint


@pytest.fixture(scope="module")
def pool_server():
    session = ChassisSession(config=FAST, sample_config=SAMPLES, jobs=2)
    server = create_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    session.close()
    thread.join(timeout=10)


def _post(server, path, obj):
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return json.loads(response.read())


def _get(server, path):
    host, port = server.server_address[:2]
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=30
    ) as response:
        return json.loads(response.read())


class TestServePoolReuse:
    def test_consecutive_batch_requests_share_workers(self, pool_server):
        """Acceptance: serve --jobs 2 must not rebuild the pool per /batch
        request; /health exposes the worker PIDs to prove it."""
        first = _post(pool_server, "/batch",
                      {"cores": [SRC, SRC2], "targets": ["c99"]})
        health_1 = _get(pool_server, "/health")
        second = _post(pool_server, "/batch",
                       {"cores": [SRC, SRC2], "targets": ["arith"]})
        health_2 = _get(pool_server, "/health")
        assert first["summary"]["ok"] == 2 and second["summary"]["ok"] == 2
        pool_1, pool_2 = health_1["pool"], health_2["pool"]
        assert pool_1["generation"] == pool_2["generation"] == 1
        assert pool_1["pids"] == pool_2["pids"] and len(pool_1["pids"]) == 2

    def test_batch_summary_has_timeout_bucket(self, pool_server):
        payload = _post(pool_server, "/batch",
                        {"cores": [SRC2], "targets": ["fdlibm"]})
        assert set(payload["summary"]) == {"ok", "failed", "timeout", "cached"}


def _scrub(payload):
    return {key: value for key, value in payload.items() if key != "elapsed"}


class TestPooledCompile:
    """With ``jobs >= 2`` a plain compile cache miss runs on the pool."""

    def test_plain_compile_matches_inline_without_the_oracle_lock(
        self, pool_session
    ):
        core = core_named("sqrt-sub")
        with ChassisSession(config=FAST, sample_config=SAMPLES) as inline:
            expected, _cached = inline.compile_payload(core, "fdlibm")
        evals = pool_session.oracle.counters().evals
        compiles = pool_session.stats.compiles
        payload, cached = pool_session.compile_payload(core, "fdlibm")
        assert not cached
        assert json.dumps(_scrub(payload)) == json.dumps(_scrub(expected))
        assert pool_session.stats.compiles == compiles + 1
        # the compile ran in a worker: the session's own oracle did no work
        assert pool_session.oracle.counters().evals == evals
        assert pool_session.stats.engine.enodes_built > 0

    def test_customized_compiles_stay_inline(self):
        with ChassisSession(config=FAST, sample_config=SAMPLES, jobs=2) as session:
            result = session.compile(
                core_named("sqrt-sub"), "c99", skip=("regimes",)
            )
            assert len(result.frontier) > 0
            assert session.pool_info() is None  # no worker ever started

    def test_closed_session_compiles_inline(self):
        specs = [(core_named("sqrt-sub"), "c99"), (core_named("logistic"), "c99")]
        with ChassisSession(config=FAST, sample_config=SAMPLES) as inline:
            expected = [_scrub(o.payload) for o in inline.compile_many(specs)]
        session = ChassisSession(config=FAST, sample_config=SAMPLES, jobs=2)
        session.close()
        result = session.compile(core_named("sqrt-sub"), "c99")
        assert len(result.frontier) > 0
        assert session.pool_info() is None
        # compile_many on the closed session forks no process either:
        # no child appears while its outcomes come in.
        before = {child.pid for child in multiprocessing.active_children()}
        during = set()

        def progress(_event):
            during.update(
                child.pid for child in multiprocessing.active_children()
            )

        outcomes = session.compile_many(specs, progress=progress)
        assert during <= before
        assert session.pool_info() is None
        assert [_scrub(o.payload) for o in outcomes] == expected

    def test_pooled_failures_keep_their_type(self, pool_session):
        from repro.accuracy.sampler import SamplingError
        from repro.ir import parse_fpcore

        failures = pool_session.stats.failures
        bad = parse_fpcore("(FPCore nopoints (x) :pre (and (< 2 x) (< x 1)) x)")
        with pytest.raises(SamplingError):
            pool_session.compile(bad, "c99")
        assert pool_session.stats.failures == failures + 1

    def test_pooled_failures_raise_the_inline_type(self):
        """A failure outside the expected pair comes home with its own
        type, not as a RuntimeError string."""
        # Not a RunnerLimits: the runner's budget reads raise AttributeError.
        broken = CompileConfig(iterations=1, localize_points=6, isel_limits="broken")
        raised = []
        for jobs in (1, 2):
            with ChassisSession(
                config=broken, sample_config=SAMPLES, jobs=jobs
            ) as session:
                with pytest.raises(Exception) as excinfo:
                    session.compile(core_named("sqrt-sub"), "c99")
                raised.append(type(excinfo.value))
                if jobs == 2:
                    assert session.pool_info()["generation"] == 1
        assert raised == [AttributeError, AttributeError]

    def test_rebuild_error_by_type_name(self):
        from repro.formats.registry import UnknownFormatError
        from repro.service.scheduler import rebuild_error

        assert type(rebuild_error("ZeroDivisionError", "x")) is ZeroDivisionError
        # a repro type whose constructor takes other arguments
        error = rebuild_error("UnknownFormatError", "no such format")
        assert type(error) is UnknownFormatError
        assert str(error) == "no such format"
        unknown = rebuild_error("NoSuchError", "boom")
        assert type(unknown) is RuntimeError
        assert str(unknown) == "NoSuchError: boom"

    def test_pooled_compile_runs_the_session_oracle_backend(self):
        core = core_named("sqrt-sub")
        with ChassisSession(
            config=FAST, sample_config=SAMPLES, oracle_backend="mpmath"
        ) as inline:
            expected, _cached = inline.compile_payload(core, "c99")
        with ChassisSession(
            config=FAST, sample_config=SAMPLES, jobs=2, oracle_backend="mpmath"
        ) as session:
            payload, cached = session.compile_payload(core, "c99")
            shipped = session.stats.rival
        assert not cached
        assert json.dumps(_scrub(payload)) == json.dumps(_scrub(expected))
        # the worker's counters came home, and it never took a fast path
        assert shipped.batch_points > 0
        assert shipped.fastpath_hits == 0
        assert shipped.escalated_points == shipped.batch_points

    def test_pooled_phases_reach_the_metrics_registry(self, pool_session):
        from repro.obs.metrics import METRICS

        improve = METRICS.histogram("repro_phase_seconds", phase="improve")
        before = improve.count
        pool_session.compile(core_named("logistic"), "avx")
        assert pool_session.last_phase_timings()["improve"] > 0.0
        pool_session.compile_many([(core_named("sqrt-sub"), "avx")])
        assert improve.count == before + 2


@pytest.fixture(scope="module")
def pool_cache_server(tmp_path_factory):
    session = ChassisSession(
        config=FAST, sample_config=SAMPLES, jobs=2,
        cache=str(tmp_path_factory.mktemp("pool-serve-cache")),
    )
    server = create_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    session.close()
    thread.join(timeout=10)


def _post_raw(server, path, obj):
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return response.headers["X-Repro-Cached"], response.read()


class TestServePooledCompile:
    def test_concurrent_duplicates_compile_once(self, pool_cache_server):
        session = pool_cache_server.session
        compiles = session.stats.compiles
        request = {"core": SRC2, "target": "avx"}
        barrier = threading.Barrier(2)
        replies = []

        def send():
            barrier.wait()
            replies.append(_post_raw(pool_cache_server, "/compile", request))

        threads = [threading.Thread(target=send) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert sorted(cached for cached, _body in replies) == ["0", "1"]
        assert session.stats.compiles == compiles + 1
        _cached, warm = _post_raw(pool_cache_server, "/compile", request)
        assert replies[0][1] == replies[1][1] == warm

    def test_timings_and_provenance_knobs(self, pool_cache_server):
        request = {"core": SRC, "target": "arith",
                   "timings": True, "provenance": True}
        cached, body = _post_raw(pool_cache_server, "/compile", request)
        cold = json.loads(body)
        assert cached == "0" and cold["status"] == "ok"
        assert cold["timings"]["improve"] > 0.0
        assert cold["provenance"]["record"]["cache"] == "store"
        assert cold["provenance"]["origin"]["status"] == "ok"
        cached, body = _post_raw(pool_cache_server, "/compile", request)
        warm = json.loads(body)
        assert cached == "1" and warm["timings"] is None
        assert warm["provenance"]["cached"] is True
        assert warm["provenance"]["origin"] == cold["provenance"]["record"]
        assert warm["result"] == cold["result"]

    def test_pooled_body_matches_an_inline_compile(self, pool_cache_server):
        with ChassisSession(config=FAST, sample_config=SAMPLES) as inline:
            expected, _cached = inline.compile_payload(SRC, "vdt")
        _cached, body = _post_raw(
            pool_cache_server, "/compile", {"core": SRC, "target": "vdt"}
        )
        got = json.loads(body)["result"]
        assert json.dumps(_scrub(got)) == json.dumps(_scrub(expected))


class TestServeCommand:
    def test_jobs_defaults_to_the_usable_cpus(self):
        from repro.cli import _usable_cpus, build_parser

        args = build_parser().parse_args(["serve"])
        assert args.jobs == _usable_cpus() >= 1

    def test_serve_forks_its_pool_before_listening(self, tmp_path):
        """``repro serve`` forks its workers from the main thread at start,
        and knobs on later requests reuse them."""
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs",
             "2", "--iterations", "1", "--points", "8", "--quiet",
             "--cache-dir", str(tmp_path)],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            for line in proc.stderr:
                match = re.search(r"listening on (http://[\d.]+:\d+)", line)
                if match:
                    base = match.group(1)
                    break
            else:
                raise AssertionError("server exited before listening")

            def health():
                with urllib.request.urlopen(base + "/health", timeout=30) as r:
                    return json.loads(r.read())

            def compile_(**knobs):
                request = urllib.request.Request(
                    base + "/compile",
                    data=json.dumps({"core": SRC2, "target": "c99", **knobs})
                    .encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=300) as response:
                    return json.loads(response.read())

            pool = health()["pool"]
            assert pool["start_method"] == "fork"
            assert pool["generation"] == 1 and len(pool["pids"]) == 2
            assert compile_()["status"] == "ok"
            assert compile_()["status"] == "ok"
            assert compile_(points=12)["status"] == "ok"
            after = health()
            assert after["pool"]["generation"] == 1
            assert after["pool"]["pids"] == pool["pids"]
            assert after["stats"]["compiles"] == 2
            assert after["stats"]["cache_hits"] == 1
        finally:
            proc.terminate()
            proc.wait(timeout=60)
            proc.stderr.close()
