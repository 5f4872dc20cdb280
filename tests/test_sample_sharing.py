"""Cross-target sample sharing lives in the compile-job engine: one
``compile_many`` call draws a benchmark's samples once for all of its
cache misses, through the session's sample cache, and callers pass plain
``(core, target)`` specs."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

import repro.session
from repro.accuracy.sampler import SampleConfig
from repro.api import ChassisSession, CompileConfig
from repro.cli import main
from repro.service.server import create_server

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=8, n_test=8)

SRC = "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"
SRC2 = "(FPCore g (x) :pre (< 0.1 x 1) (+ (* x x) 1))"
BAD = "(FPCore nopoints (x) :pre (and (< 2 x) (< x 1)) x)"
TARGETS = ("c99", "arith", "avx")


def _without_elapsed(payload: dict) -> str:
    return json.dumps({k: v for k, v in payload.items() if k != "elapsed"})


def _draws(session: ChassisSession) -> tuple[int, int]:
    return session.stats.sample_misses, session.stats.sample_hits


@pytest.mark.parametrize("jobs", (1, 2))
def test_cold_multi_target_batch_draws_once(jobs):
    with ChassisSession(config=FAST, sample_config=SAMPLES, jobs=jobs) as session:
        core = session.parse(SRC)
        outcomes = session.compile_many([(core, target) for target in TARGETS])
        assert [o.status for o in outcomes] == ["ok"] * len(TARGETS)
        assert _draws(session) == (1, 0)
    want = []
    for target in TARGETS:
        with ChassisSession(config=FAST, sample_config=SAMPLES) as separate:
            want.append(_without_elapsed(separate.compile_payload(SRC, target)[0]))
    assert [_without_elapsed(o.payload) for o in outcomes] == want


@pytest.mark.parametrize("jobs", (1, 2))
def test_a_lone_miss_draws_in_its_job(tmp_path, jobs):
    with ChassisSession(
        config=FAST, sample_config=SAMPLES, cache=str(tmp_path), jobs=jobs
    ) as session:
        core = session.parse(SRC)
        session.compile_many([(core, target) for target in TARGETS[:2]])
    with ChassisSession(
        config=FAST, sample_config=SAMPLES, cache=str(tmp_path), jobs=jobs
    ) as session:
        outcomes = session.compile_many([(core, target) for target in TARGETS])
        assert [o.cached for o in outcomes] == [True, True, False]
        assert outcomes[-1].ok and outcomes[-1].oracle["batch_points"] > 0
        assert _draws(session) == (0, 0)
        assert not session.oracle.counters().any()


@pytest.mark.parametrize("jobs", (1, 2))
def test_warm_rerun_draws_nothing(tmp_path, jobs):
    with ChassisSession(
        config=FAST, sample_config=SAMPLES, cache=str(tmp_path), jobs=jobs
    ) as session:
        specs = [(session.parse(SRC), target) for target in TARGETS]
        assert all(o.ok for o in session.compile_many(specs))
        drawn, counters = _draws(session), session.oracle.counters()
        assert all(o.cached for o in session.compile_many(specs))
        assert _draws(session) == drawn
        assert session.oracle.counters() == counters
    with ChassisSession(
        config=FAST, sample_config=SAMPLES, cache=str(tmp_path), jobs=jobs
    ) as session:
        assert all(o.cached for o in session.compile_many(specs))
        assert _draws(session) == (0, 0)
        assert not session.oracle.counters().any()


@pytest.mark.parametrize("jobs", (1, 2))
def test_unsampleable_core_fails_on_every_target(jobs):
    with ChassisSession(config=FAST, sample_config=SAMPLES, jobs=jobs) as session:
        bad, good = session.parse(BAD), session.parse(SRC2)
        outcomes = session.compile_many(
            [(bad, target) for target in TARGETS] + [(good, "c99")]
        )
        assert [(o.status, o.error_type) for o in outcomes] == [
            ("failed", "SamplingError")
        ] * len(TARGETS) + [("ok", "")]
        # One parent draw was tried for the unsampleable group, none for
        # the lone good job.
        assert _draws(session) == (1, 0)


@pytest.mark.parametrize("jobs", (1, 2))
def test_held_samples_reach_a_lone_miss(jobs):
    """A one-target Herbie comparison draws each benchmark once: the
    runner's draw for the baseline is held by the session, and the
    engine hands that set to the benchmark's lone compile job (a sample
    hit) instead of letting the job draw again."""
    from repro.experiments.runner import ExperimentConfig, run_herbie_comparison
    from repro.targets import get_target

    config = ExperimentConfig(FAST, SAMPLES, jobs=jobs)
    try:
        session = config.get_session()
        cores = [session.parse(SRC), session.parse(SRC2)]
        results = run_herbie_comparison(cores, [get_target("c99")], config)
        assert [r.benchmark for r in results] == ["f", "g"]
        assert _draws(session) == (2, 2)
    finally:
        config.close()


@pytest.fixture
def counted_fingerprints(monkeypatch):
    calls = []
    fingerprint = repro.session.job_fingerprint

    def counting(*args, **kwargs):
        calls.append(args)
        return fingerprint(*args, **kwargs)

    monkeypatch.setattr(repro.session, "job_fingerprint", counting)
    return calls


def test_repro_batch_fingerprints_each_job_once(tmp_path, counted_fingerprints):
    code = main([
        "batch", "sqrt-sub", "logistic", "--targets", "c99,avx",
        "--iterations", "1", "--points", "8", "--cache-dir", str(tmp_path),
        "--quiet",
    ])
    assert code == 0
    assert len(counted_fingerprints) == 4


def test_serve_batch_fingerprints_each_job_once(tmp_path, counted_fingerprints):
    session = ChassisSession(
        config=FAST, sample_config=SAMPLES, cache=str(tmp_path)
    )
    server = create_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/batch",
            data=json.dumps(
                {"cores": [SRC, SRC2], "targets": ["c99", "arith"]}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=300) as response:
            summary = json.loads(response.read())["summary"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        session.close()
    assert (summary["ok"], summary["cached"]) == (4, 0)
    assert len(counted_fingerprints) == 4
    assert _draws(session) == (2, 0)
