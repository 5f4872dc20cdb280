"""Deadline enforcement off the main thread: the thread-safe replacement
for SIGALRM-only job timeouts.

The contracts pinned down here:

* the :mod:`repro.deadline` primitives themselves (nesting, restoration,
  BaseException-ness);
* a session ``timeout`` binds inline compiles running on *non-main*
  threads — serve handlers and ``submit`` workers — which previously ran
  silently unbounded;
* the serve front-end reports such timeouts as a ``timeout`` *outcome*
  (200 + status field, like failed pairs), not a hung request or a 500;
* timeouts are counted by session stats (``/health`` used to miss them
  entirely).
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.accuracy.sampler import SampleConfig
from repro.api import (
    ChassisSession,
    CompileConfig,
    DeadlineExceeded,
    JobTimeout,
    check_deadline,
    create_server,
    deadline,
)
from repro.benchsuite import core_named
from repro.deadline import current_deadline

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=8, n_test=8)

SRC = "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"


class TestDeadlinePrimitives:
    def test_no_deadline_never_fires(self):
        check_deadline()  # no-op outside any deadline scope

    def test_expired_deadline_raises(self):
        with pytest.raises(DeadlineExceeded):
            with deadline(0.0001):
                import time

                time.sleep(0.01)
                check_deadline()

    def test_generous_deadline_passes_and_restores(self):
        with deadline(60.0):
            check_deadline()
        check_deadline()  # restored to unbounded

    def test_nested_deadline_keeps_the_tighter_bound(self):
        import time

        with deadline(0.0001):
            time.sleep(0.01)
            with deadline(60.0):  # cannot extend the outer budget
                with pytest.raises(DeadlineExceeded):
                    check_deadline()

    def test_is_base_exception(self):
        # Broad `except Exception` guards (sampler, e-graph) must not be
        # able to swallow a timeout.
        assert not issubclass(DeadlineExceeded, Exception)
        assert issubclass(JobTimeout, DeadlineExceeded)

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError):
            with deadline(0):
                pass

    def test_fresh_thread_has_no_deadline(self):
        seen = []

        def probe():
            check_deadline()  # a thread that never armed one: a no-op
            seen.append(current_deadline())

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [None]

    def test_deadline_is_invisible_to_other_threads(self):
        import time

        seen = []

        def probe():
            try:
                check_deadline()
            except DeadlineExceeded:
                seen.append("raised")
            else:
                seen.append(current_deadline())

        with deadline(0.0001):
            time.sleep(0.01)
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            with pytest.raises(DeadlineExceeded):
                check_deadline()
        assert seen == [None]
        assert current_deadline() is None


class TestSessionTimeouts:
    def test_inline_compile_times_out_off_main_thread(self):
        """The core bug: a worker thread's compile used to run unbounded."""
        session = ChassisSession(config=FAST, sample_config=SAMPLES, timeout=0.001)
        outcome = {}

        def compile_in_thread():
            try:
                session.compile(core_named("sqrt-sub"), "c99")
                outcome["status"] = "completed"
            except DeadlineExceeded:
                outcome["status"] = "timeout"

        thread = threading.Thread(target=compile_in_thread)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert outcome["status"] == "timeout"
        assert session.stats.timeouts == 1
        assert session.stats.failures == 0

    def test_submit_handle_times_out(self):
        """submit() futures run on executor threads: bounded now too."""
        session = ChassisSession(config=FAST, sample_config=SAMPLES, timeout=0.001)
        handle = session.submit(core_named("sqrt-sub"), "c99")
        assert isinstance(handle.exception(timeout=60), DeadlineExceeded)
        assert handle.poll() == "failed"
        session.close()

    def test_per_call_timeout_overrides_session_default(self):
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        with pytest.raises(DeadlineExceeded):
            session.compile(core_named("sqrt-sub"), "c99", timeout=0.001)
        # the same session compiles fine without the override
        result = session.compile(core_named("sqrt-sub"), "arith")
        assert result.frontier

    def test_inline_batch_records_timeout_outcome(self):
        """jobs=1 batches run inline; the deadline (not SIGALRM) must
        bound them even on a non-main thread, recorded per job."""
        session = ChassisSession(config=FAST, sample_config=SAMPLES, timeout=0.001)
        outcomes = {}

        def batch_in_thread():
            outcomes["batch"] = session.compile_many(
                [(core_named("sqrt-sub"), "c99")]
            )

        thread = threading.Thread(target=batch_in_thread)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        (outcome,) = outcomes["batch"]
        assert outcome.status == "timeout"
        assert outcome.error_type == "JobTimeout"
        assert session.stats.timeouts == 1


@pytest.fixture(scope="module")
def timeout_server():
    """A serve front-end whose session has no default timeout; requests
    opt in per call via the ``timeout`` knob."""
    session = ChassisSession(config=FAST, sample_config=SAMPLES)
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
        return response.status, dict(response.headers), json.loads(response.read())


class TestServeTimeouts:
    def test_tiny_timeout_compile_is_a_timeout_outcome(self, timeout_server):
        """Acceptance: /compile with a deliberately tiny timeout terminates
        as a ``timeout`` outcome instead of running unbounded (handler
        threads cannot arm SIGALRM; the cooperative deadline fires)."""
        status, headers, payload = _post(
            timeout_server, "/compile",
            {"core": SRC, "target": "c99", "timeout": 0.001},
        )
        assert status == 200
        assert payload["status"] == "timeout"
        assert payload["error_type"] == "JobTimeout"
        assert payload["benchmark"] == "f" and payload["target"] == "c99"
        assert headers["X-Repro-Cached"] == "0"

    def test_timeouts_surface_in_health(self, timeout_server):
        _post(timeout_server, "/compile",
              {"core": SRC, "target": "c99", "timeout": 0.001})
        host, port = timeout_server.server_address[:2]
        with urllib.request.urlopen(
            f"http://{host}:{port}/health", timeout=30
        ) as response:
            payload = json.loads(response.read())
        assert payload["stats"]["timeouts"] >= 1

    def test_bad_timeout_knob_is_400(self, timeout_server):
        for bad in (0, -1, "soon", True):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(timeout_server, "/compile",
                      {"core": SRC, "target": "c99", "timeout": bad})
            assert excinfo.value.code == 400

    def test_without_timeout_the_same_request_completes(self, timeout_server):
        status, _headers, payload = _post(
            timeout_server, "/compile", {"core": SRC, "target": "arith"}
        )
        assert status == 200
        assert payload["status"] == "ok"
