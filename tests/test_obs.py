"""Tests for the observability subsystem (:mod:`repro.obs`): span traces,
the metrics registry, the instrumented compile path, and the server's
``/metrics`` + timings surfaces."""

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.accuracy.sampler import SampleConfig, sample_core
from repro.api import ChassisSession, CompileConfig, create_server
from repro.cli import main
from repro.ir import parse_fpcore
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import (
    Trace,
    chrome_trace,
    span,
    tracing,
    write_chrome_trace,
)
from repro.rival.backends import make_backend
from repro.targets import get_target

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=8, n_test=8)

SRC = "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"
SRC2 = "(FPCore g (x) :pre (< 0.1 x 1) (+ (* x x) 1))"


class TestSpans:
    def test_nesting_attrs_and_parent_links(self):
        trace = Trace(name="t")
        with tracing(trace):
            with span("outer", a=1) as outer:
                with span("inner"):
                    pass
                outer["attrs"]["b"] = 2
        assert trace.span_names() == ["outer", "inner"]
        outer_rec, inner_rec = trace.spans
        assert outer_rec["parent"] is None and inner_rec["parent"] == 0
        assert outer_rec["attrs"] == {"a": 1, "b": 2}
        assert inner_rec["start"] >= outer_rec["start"]
        assert outer_rec["dur"] >= inner_rec["dur"] >= 0.0

    def test_span_without_tracer_yields_none(self):
        with span("x", a=1) as record:
            assert record is None

    def test_rearming_shadows_and_restores(self):
        t1, t2 = Trace(), Trace()
        with tracing(t1):
            with span("a"):
                pass
            with tracing(t2):
                with span("b"):
                    pass
            with span("c"):
                pass
        assert t1.span_names() == ["a", "c"]
        assert t2.span_names() == ["b"]

    def test_trace_as_dict_carries_what_a_merge_needs(self):
        trace = Trace(name="job", pid=4242)
        with tracing(trace):
            with span("compile", target="c99"):
                pass
        shipped = json.loads(json.dumps(trace.as_dict()))
        assert shipped["name"] == "job" and shipped["pid"] == 4242
        assert shipped["spans"] == trace.spans
        assert shipped["epoch_wall"] == trace.epoch_wall

    def test_phase_seconds_sums_only_phase_spans(self):
        trace = Trace()
        trace.spans = [
            {"name": "compile", "start": 0, "dur": 9.0, "parent": None, "attrs": {}},
            {"name": "phase.improve", "start": 0, "dur": 2.0, "parent": 0, "attrs": {}},
            {"name": "phase.improve", "start": 2, "dur": 1.0, "parent": 0, "attrs": {}},
            {"name": "phase.score", "start": 3, "dur": 0.5, "parent": 0, "attrs": {}},
        ]
        assert trace.phase_seconds() == {"improve": 3.0, "score": 0.5}

    def test_disabled_tracer_is_near_zero_cost(self):
        # The permanent-instrumentation contract: with no tracer armed a
        # span() entry is one thread-local read.  20k disabled entries
        # must finish in well under a second even on a loaded CI box.
        assert threading.current_thread()  # warm imports outside the clock
        start = time.perf_counter()
        for _ in range(20_000):
            with span("x"):
                pass
        assert time.perf_counter() - start < 1.0


class TestChromeTrace:
    def test_merges_processes_onto_one_absolute_timeline(self):
        t1 = Trace(name="a", pid=111)
        t1.epoch_wall = 1000.0
        t1.spans = [
            {"name": "compile", "start": 0.5, "dur": 1.0, "parent": None,
             "attrs": {"k": "v"}},
        ]
        t2 = Trace(name="b", pid=222)
        t2.epoch_wall = 1001.0
        t2.spans = [
            {"name": "compile", "start": 0.0, "dur": 0.5, "parent": None,
             "attrs": {}},
        ]
        payload = chrome_trace([t1, t2.as_dict()])  # Trace and dict both ok
        events = payload["traceEvents"]
        assert len(events) == 2
        assert all(event["ph"] == "X" and event["cat"] == "repro"
                   for event in events)
        by_pid = {event["pid"]: event for event in events}
        # absolute starts are 1000.5 and 1001.0 -> normalized to 0 and 0.5s
        assert by_pid[111]["ts"] == 0.0
        assert by_pid[222]["ts"] == pytest.approx(0.5e6)
        assert by_pid[111]["dur"] == pytest.approx(1e6)
        assert by_pid[111]["args"] == {"k": "v", "job": "a"}

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        trace = Trace(name="x")
        with tracing(trace):
            with span("compile"):
                with span("phase.improve"):
                    pass
        path = tmp_path / "t.json"
        count = write_chrome_trace(path, [trace])
        data = json.loads(path.read_text())
        assert count == len(data["traceEvents"]) == 2
        assert data["displayTimeUnit"] == "ms"


_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.e+-]+|\+Inf)$"
)


def assert_valid_exposition(text: str) -> None:
    """Structural checks for the Prometheus text format (version 0.0.4)."""
    assert text.endswith("\n")
    buckets: dict[str, list[int]] = {}
    for line in text.splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
            continue
        assert _SAMPLE_LINE.match(line), line
        if "_bucket{" in line:
            # one child per (family, non-le labels): le is rendered last
            child = line.split('le="', 1)[0]
            buckets.setdefault(child, []).append(int(line.rsplit(" ", 1)[1]))
    for child, counts in buckets.items():
        assert counts == sorted(counts), f"{child} buckets not cumulative"


class TestMetricsRegistry:
    def test_counter_children_cached_per_label_set(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("t_total", "Things.", outcome="ok").inc()
        reg.counter("t_total", outcome="ok").inc(2)
        reg.counter("t_total", outcome="bad").inc()
        text = reg.exposition()
        assert "# HELP t_total Things." in text
        assert "# TYPE t_total counter" in text
        assert 't_total{outcome="bad"} 1' in text
        assert 't_total{outcome="ok"} 3' in text
        assert_valid_exposition(text)

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry(enabled=True)
        hist = reg.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = reg.exposition()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert "lat_seconds_sum 5.55" in text
        assert_valid_exposition(text)

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        counter = reg.counter("n_total")
        counter.inc()
        hist = reg.histogram("h_seconds")
        hist.observe(1.0)
        assert counter.value == 0 and hist.count == 0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.histogram("x_total")

    def test_gauge_reregistration_replaces_the_callable(self):
        reg = MetricsRegistry(enabled=True)
        reg.gauge_fn("g", lambda: 1.0, "A gauge.")
        reg.gauge_fn("g", lambda: 2.0, "A gauge.")
        text = reg.exposition()
        assert text.count("# TYPE g gauge") == 1
        assert "\ng 2\n" in text

    def test_broken_gauge_does_not_break_the_scrape(self):
        reg = MetricsRegistry(enabled=True)
        reg.gauge_fn("boom", lambda: 1 / 0)
        reg.counter("ok_total").inc()
        text = reg.exposition()
        assert "boom" not in text and "ok_total 1" in text


class TestInstrumentedCompile:
    def test_trace_covers_the_compile_and_feeds_stats(self):
        with ChassisSession(config=FAST, sample_config=SAMPLES) as session:
            core = parse_fpcore(SRC)
            before_ok = METRICS.counter(
                "repro_compiles_total", outcome="ok"
            ).value
            trace = Trace(name="f:c99")
            with tracing(trace):
                session.compile(core, get_target("c99"))
            names = set(trace.span_names())
            assert {
                "compile", "phase.parse", "phase.sample", "phase.transcribe",
                "phase.improve", "phase.regimes", "phase.score",
                "improve.iteration", "egraph.run_rules", "egraph.search",
                "egraph.apply", "egraph.rebuild",
            } <= names
            # acceptance: phase spans account for >= 90% of the compile span
            root = trace.find("compile")[0]
            phases = trace.phase_seconds()
            assert sum(phases.values()) >= 0.9 * root["dur"]
            # the same breakdown is surfaced to the caller thread-locally
            timings = session.last_phase_timings()
            assert timings is not None and set(timings) == set(phases)
            # the oracle counts its work: the session backend exactly the
            # sample draw, the job's own backend the rest
            draw = make_backend(session.oracle_backend)
            sample_core(core, SAMPLES, oracle=draw)
            assert session.oracle.counters() == draw.counters()
            assert session.stats.rival.evals > 0
            after_ok = METRICS.counter(
                "repro_compiles_total", outcome="ok"
            ).value
            assert after_ok == before_ok + 1
            health = session.health()
            assert health["ok"] is True
            assert health["oracle"]["evals"] == (
                draw.counters().evals + session.stats.rival.evals
            )

    def test_pooled_jobs_ship_traces_and_engine_counters(self):
        cores = [parse_fpcore(SRC), parse_fpcore(SRC2)]
        target = get_target("c99")
        # inline reference trace
        with ChassisSession(config=FAST, sample_config=SAMPLES) as session:
            ref = Trace()
            with tracing(ref):
                session.compile(cores[0], target)
        inline_names = set(ref.span_names())
        # pooled run: spans + engine deltas come back through JobOutcome
        with ChassisSession(
            config=FAST, sample_config=SAMPLES, jobs=2
        ) as session:
            outcomes = session.compile_many(
                [(core, target) for core in cores], trace=True
            )
            assert [outcome.ok for outcome in outcomes] == [True, True]
            for outcome in outcomes:
                assert outcome.trace is not None
                assert outcome.engine and outcome.engine["enodes_built"] > 0
            # satellite: worker EngineStats deltas merged into the session
            assert session.stats.engine.enodes_built > 0
            assert session.stats.engine.saturations > 0
            pooled = outcomes[0].trace["spans"]
            pooled_names = {record["name"] for record in pooled}
        # same instrumentation either side of the process boundary: every
        # pooled span name exists inline
        assert pooled_names <= inline_names
        assert {"compile", "phase.improve", "egraph.run_rules"} <= pooled_names
        assert [r["dur"] for r in pooled if r["name"] == "compile"][0] > 0.0


@pytest.fixture(scope="module")
def obs_server(tmp_path_factory):
    session = ChassisSession(
        config=FAST,
        sample_config=SAMPLES,
        cache=str(tmp_path_factory.mktemp("obs-serve-cache")),
    )
    server = create_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _get(url):
    with urllib.request.urlopen(url, timeout=300) as response:
        return response.status, dict(response.headers), response.read()


def _post(url, obj):
    request = urllib.request.Request(
        url,
        data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return response.status, dict(response.headers), response.read()


class TestServerObservability:
    def test_metrics_endpoint_is_valid_prometheus_text(self, obs_server):
        _post(obs_server + "/compile", {"core": SRC, "target": "c99"})
        # A request's own observation lands just after its response is
        # written, so poll until a scrape has seen a previous /metrics hit.
        deadline = time.monotonic() + 5.0
        while True:
            status, headers, body = _get(obs_server + "/metrics")
            if b'route="/metrics"' in body or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode("utf-8")
        assert_valid_exposition(text)
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'repro_http_requests_total{route="/metrics",status="200"}' in text
        assert "# TYPE repro_phase_seconds histogram" in text
        # session-owned gauges computed at scrape time
        assert "# TYPE repro_session_compiles gauge" in text
        assert "repro_oracle_evals" in text

    def test_unknown_routes_collapse_into_one_label(self, obs_server):
        for path in ("/nonesuch-a", "/nonesuch-b"):
            with pytest.raises(urllib.error.HTTPError):
                _get(obs_server + path)
        deadline = time.monotonic() + 5.0
        while True:
            _status, _headers, body = _get(obs_server + "/metrics")
            if b'route="<other>"' in body or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        text = body.decode("utf-8")
        assert 'route="<other>"' in text
        assert "nonesuch" not in text

    def test_compile_timings_knob(self, obs_server):
        core = "(FPCore t (x) :pre (< 0.001 x 0.9) (log (+ 1 x)))"
        # default: no timings key, and warm bodies stay byte-identical
        _s, headers1, body1 = _post(
            obs_server + "/compile", {"core": core, "target": "c99"}
        )
        assert "timings" not in json.loads(body1)
        # opt-in on a warm hit: key present, value null (no phases ran)
        _s, headers2, body2 = _post(
            obs_server + "/compile",
            {"core": core, "target": "c99", "timings": True},
        )
        assert headers2["X-Repro-Cached"] == "1"
        assert json.loads(body2)["timings"] is None
        # opt-in on a cold compile: the per-phase breakdown
        cold = "(FPCore t2 (x) :pre (< 0.1 x 2) (sqrt (+ 1 x)))"
        _s, headers3, body3 = _post(
            obs_server + "/compile",
            {"core": cold, "target": "c99", "timings": True},
        )
        assert headers3["X-Repro-Cached"] == "0"
        timings = json.loads(body3)["timings"]
        assert timings and timings["improve"] > 0.0
        assert set(timings) >= {"parse", "sample", "improve", "score"}

    def test_timings_knob_must_be_boolean(self, obs_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                obs_server + "/compile",
                {"core": SRC, "target": "c99", "timings": "yes"},
            )
        assert excinfo.value.code == 400


class TestHealthCLI:
    def test_local_session_table(self, capsys):
        assert main(["health"]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert "engine:" in out and "oracle:" in out

    def test_local_json_payload(self, capsys):
        assert main(["health", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "engine" in payload["stats"]

    def test_against_a_running_server(self, obs_server, capsys):
        assert main(["health", "--url", obs_server, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert "# TYPE repro_http_requests_total counter" in out

    def test_unreachable_server_fails_cleanly(self, capsys):
        assert main(["health", "--url", "http://127.0.0.1:9"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestTraceCLI:
    def test_compile_trace_writes_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "compile", "sqrt-sub", "--target", "c99",
            "--iterations", "1", "--points", "8",
            "--json", "--trace", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        row = json.loads(captured.out.splitlines()[0])
        assert row["status"] == "ok"
        assert row["timings"]["improve"] > 0.0
        assert "wrote" in captured.err and str(out) in captured.err
        data = json.loads(out.read_text())
        events = data["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        compile_events = [e for e in events if e["name"] == "compile"]
        phase_dur = sum(
            e["dur"] for e in events if e["name"].startswith("phase.")
        )
        # acceptance: phase spans sum to within 10% of the compile span
        assert len(compile_events) == 1
        assert phase_dur >= 0.9 * compile_events[0]["dur"]
