"""One compile path: a single session compile is a one-job batch of the
engine ``compile_many`` drives, and its ``JobOutcome`` is the one record
that stats, ``/metrics``, the ledger and the ``--json`` rows read."""

from __future__ import annotations

import inspect
import json
import signal
import time
import traceback

import pytest

from repro.accuracy.sampler import SampleConfig, SamplingError, sample_core
from repro.api import PHASE_NAMES, ChassisSession, CompileConfig
from repro.cli import main
from repro.deadline import DeadlineExceeded
from repro.obs.metrics import METRICS
from repro.rival.backends import make_backend

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=8, n_test=8)

SRC = "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"
SRC2 = "(FPCore g (x) :pre (< 0.1 x 1) (+ (* x x) 1))"
BAD = "(FPCore nopoints (x) :pre (and (< 2 x) (< x 1)) x)"

#: ``repro_compiles_total`` label -> the ``SessionStats`` counter it mirrors.
DISPOSITIONS = {
    "ok": "compiles",
    "cache_hit": "cache_hits",
    "failure": "failures",
    "timeout": "timeouts",
}


def _counts(session: ChassisSession) -> dict[str, tuple[float, int]]:
    return {
        label: (
            METRICS.counter("repro_compiles_total", outcome=label).value,
            getattr(session.stats, counter),
        )
        for label, counter in DISPOSITIONS.items()
    }


def _without_elapsed(payload: dict) -> str:
    return json.dumps({k: v for k, v in payload.items() if k != "elapsed"})


@pytest.mark.parametrize("jobs", (1, 2))
def test_compiles_total_moves_with_session_stats(tmp_path, jobs):
    """Single entries and batch jobs reach ``/metrics`` and ``/health``
    through the same fold, for every disposition."""
    with ChassisSession(
        config=FAST, sample_config=SAMPLES, cache=str(tmp_path), jobs=jobs
    ) as session:
        before = _counts(session)
        session.compile(SRC, "c99")
        with pytest.raises(SamplingError):
            session.compile(BAD, "c99")
        with pytest.raises(DeadlineExceeded):
            session.compile(SRC2, "c99", timeout=0.001)
        outcomes = session.compile_many(
            [(session.parse(SRC), "c99"), (session.parse(SRC2), "arith"),
             (session.parse(BAD), "c99")]
        )
        assert [o.status for o in outcomes] == ["ok", "ok", "failed"]
        assert outcomes[0].cached
        after = _counts(session)
    for label in DISPOSITIONS:
        metric = after[label][0] - before[label][0]
        stat = after[label][1] - before[label][1]
        assert metric == stat, label
    assert {label: after[label][1] - before[label][1] for label in DISPOSITIONS} == {
        "ok": 2, "cache_hit": 1, "failure": 2, "timeout": 1,
    }


def test_pooled_compile_record_carries_oracle_counts(tmp_path):
    with ChassisSession(
        config=FAST, sample_config=SAMPLES, cache=str(tmp_path), jobs=2
    ) as session:
        session.compile(SRC, "c99")
        record = session.last_provenance()["record"]
        assert session.pool_info() is not None
    assert (record["kind"], record["cache"]) == ("compile", "store")
    assert record["oracle"] and record["oracle"]["batch_points"] > 0


def test_inline_second_target_compile_is_a_sample_hit():
    """Inline jobs draw through the session's sample cache: the session
    backend holds exactly one draw, and each job ships its own work."""
    with ChassisSession(config=FAST, sample_config=SAMPLES) as session:
        core = session.parse(SRC)
        session.compile(core, "c99")
        session.compile(core, "arith")
        assert (session.stats.sample_misses, session.stats.sample_hits) == (1, 1)
        draw = make_backend(session.oracle_backend)
        sample_core(core, SAMPLES, oracle=draw)
        assert session.oracle.counters() == draw.counters()
        assert session.stats.rival.batch_points > 0
        assert session.pool_info() is None


def test_inline_and_pooled_compile_payload_agree():
    seen = {}
    for jobs in (1, 2):
        with ChassisSession(config=FAST, sample_config=SAMPLES, jobs=jobs) as session:
            payload, cached = session.compile_payload(SRC, "c99")
            assert not cached
            assert (session.pool_info() is None) == (jobs == 1)
            seen[jobs] = (
                _without_elapsed(payload), set(session.last_phase_timings())
            )
    assert seen[1] == seen[2]
    assert seen[1][1] == set(PHASE_NAMES)


def test_compile_json_rows_agree_across_jobs(capsys):
    """``repro compile --json`` prints the same rows, with all six phase
    timings, whether its jobs run inline or on the pool."""
    rows = {}
    for jobs in ("1", "2"):
        code = main([
            "compile", "sqrt-sub", "--target", "c99",
            "--iterations", "1", "--points", "8", "--json", "--jobs", jobs,
        ])
        assert code == 0
        rows[jobs] = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
    for row in rows["1"] + rows["2"]:
        assert row["status"] == "ok"
        assert set(row["timings"]) == set(PHASE_NAMES)
        assert row["engine"]["enodes_built"] > 0

    def strip(row):
        return {k: v for k, v in row.items() if k != "timings"}

    assert [strip(row) for row in rows["1"]] == [strip(row) for row in rows["2"]]


class Broken(Exception):
    """A failure from outside ``repro`` whose constructor wants more than
    a message: a pooled job could only report its name."""

    def __init__(self, detail: object):
        super().__init__(f"broken: {detail}")
        self.detail = detail


def _broken_transcribe(*_args):
    raise Broken({"where": "transcribe"})


@pytest.mark.parametrize("entry", ("compile", "compile_payload", "submit"))
def test_inline_failure_raises_the_job_exception(monkeypatch, entry):
    """An inline job's error reaches the caller as raised: its type, its
    attributes and the traceback down to where it was raised."""
    monkeypatch.setattr("repro.core.pipeline.transcribe", _broken_transcribe)
    with ChassisSession(config=FAST, sample_config=SAMPLES) as session:
        with pytest.raises(Broken) as caught:
            if entry == "submit":
                session.submit(SRC, "c99").result()
            else:
                getattr(session, entry)(SRC, "c99")
        assert session.stats.failures == 1
        if entry != "submit":  # the last entry is the compiling thread's
            assert session.last_phase_timings() is not None
            # The last-entry record does not keep the traceback alive.
            assert session._last.outcome.exception is None
    assert caught.value.detail == {"where": "transcribe"}
    frames = traceback.extract_tb(caught.value.__traceback__)
    assert frames[-1].name == "_broken_transcribe"


needs_itimer = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="no interval timers"
)


@needs_itimer
@pytest.mark.parametrize("entry", ("compile", "compile_many"))
def test_timed_compile_keeps_the_callers_interval_timer(entry):
    """A compile with a timeout leaves an interval timer the caller armed
    (and its handler) as it found them."""
    fired = []

    def handler(*_args):
        fired.append(1)

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, 300.0)
    try:
        with ChassisSession(config=FAST, sample_config=SAMPLES) as session:
            if entry == "compile":
                session.compile(SRC, "c99", timeout=60.0)
            else:
                [outcome] = session.compile_many(
                    [(session.parse(SRC), "c99")], timeout=60.0
                )
                assert outcome.ok
        remaining, _interval = signal.getitimer(signal.ITIMER_REAL)
        assert 0.0 < remaining <= 300.0
        assert signal.getsignal(signal.SIGALRM) is handler
        assert not fired
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_compile_takes_the_job_knobs_only():
    """Customized runs are ``run_pipeline`` runs: ``compile`` takes the
    same keyword arguments as ``compile_payload``, a job's knobs."""
    def knobs(method):
        return [
            name for name, parameter in inspect.signature(method).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        ]

    assert knobs(ChassisSession.compile) == ["config", "sample_config", "timeout"]
    assert knobs(ChassisSession.compile) == knobs(ChassisSession.compile_payload)


def _sample_phase_sum() -> float:
    return METRICS.histogram("repro_phase_seconds", phase="sample").sum


@pytest.mark.parametrize("entry", ("compile", "run_pipeline"))
def test_sample_phase_metric_matches_timings(entry):
    """The session's own sample draw reaches ``repro_phase_seconds``: a
    fresh run raises the histogram by exactly its ``sample`` timing."""
    with ChassisSession(config=FAST, sample_config=SAMPLES, jobs=1) as session:
        before = _sample_phase_sum()
        if entry == "compile":
            session.compile(SRC, "c99")
            phases = session.last_phase_timings()
        else:
            phases = session.run_pipeline(SRC, "c99").phase_seconds
        rise = _sample_phase_sum() - before
    assert phases["sample"] > 0.0
    assert rise == pytest.approx(phases["sample"], rel=1e-9)


def test_run_pipeline_has_one_time_budget(monkeypatch):
    """``run_pipeline(timeout=)`` bounds sampling and the pipeline
    together: a draw using 60% of the budget and a first phase using
    another 60% run out of it."""
    budget = 1.5
    with ChassisSession(config=FAST, sample_config=SAMPLES) as session:
        core = session.parse(SRC)
        draw = session.samples_for
        draw(core)  # warm: the patched draw only adds its sleep

        def slow_draw(*args, **kwargs):
            time.sleep(0.6 * budget)
            return draw(*args, **kwargs)

        def slow_first_phase(name, _ctx):
            if name == PHASE_NAMES[0]:
                time.sleep(0.6 * budget)

        monkeypatch.setattr(session, "samples_for", slow_draw)
        with pytest.raises(DeadlineExceeded):
            session.run_pipeline(
                core, "c99", before=slow_first_phase, timeout=budget
            )
