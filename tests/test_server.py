"""Tests for the ``repro serve`` HTTP front-end (one warm session)."""

import json
import socket
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.accuracy.sampler import SampleConfig
from repro.api import ChassisSession, CompileConfig, create_server
from repro.service.server import ChassisRequestHandler

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=8, n_test=8)

SRC = "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"
SRC2 = "(FPCore g (x) :pre (< 0.1 x 1) (+ (* x x) 1))"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    session = ChassisSession(
        config=FAST,
        sample_config=SAMPLES,
        cache=str(tmp_path_factory.mktemp("serve-cache")),
    )
    server = create_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _get(url):
    with urllib.request.urlopen(url, timeout=300) as response:
        return response.status, dict(response.headers), response.read()


def _post(url, obj, raw: bytes | None = None):
    data = raw if raw is not None else json.dumps(obj).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return response.status, dict(response.headers), response.read()


class TestCompileEndpoint:
    def test_second_identical_request_is_warm_and_byte_identical(self, base_url):
        body = {"core": SRC, "target": "c99"}
        status1, headers1, bytes1 = _post(base_url + "/compile", body)
        status2, headers2, bytes2 = _post(base_url + "/compile", body)
        assert status1 == status2 == 200
        assert headers1["X-Repro-Cached"] == "0"
        assert headers2["X-Repro-Cached"] == "1"
        # the warm response is served from the stored payload: byte-identical
        assert bytes1 == bytes2
        payload = json.loads(bytes2)
        assert payload["status"] == "ok"
        assert payload["benchmark"] == "f" and payload["target"] == "c99"
        assert payload["result"]["frontier"]

    def test_knob_overrides_change_the_cache_key(self, base_url):
        body = {"core": SRC, "target": "c99", "points": 6}
        _status, headers, _bytes = _post(base_url + "/compile", body)
        assert headers["X-Repro-Cached"] == "0"  # different sample config

    def test_infeasible_pair_is_failed_data_not_an_error(self, base_url):
        bad = "(FPCore nopoints (x) :pre (and (< 2 x) (< x 1)) x)"
        status, _headers, body = _post(
            base_url + "/compile", {"core": bad, "target": "c99"}
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "failed"
        assert payload["error_type"] == "SamplingError"

    def test_concurrent_clients(self, base_url):
        def one(source):
            status, _headers, body = _post(
                base_url + "/compile", {"core": source, "target": "c99"}
            )
            return status, json.loads(body)

        with ThreadPoolExecutor(max_workers=4) as pool:
            replies = list(pool.map(one, [SRC, SRC2, SRC, SRC2, SRC, SRC2]))
        assert all(status == 200 for status, _payload in replies)
        by_benchmark = {payload["benchmark"] for _status, payload in replies}
        assert by_benchmark == {"f", "g"}
        # identical requests agree exactly, concurrent or not
        f_results = [p["result"] for _s, p in replies if p["benchmark"] == "f"]
        assert all(r == f_results[0] for r in f_results)


class TestMalformedRequests:
    def test_invalid_json_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url + "/compile", None, raw=b"{not json")
        assert excinfo.value.code == 400
        assert "not valid JSON" in json.loads(excinfo.value.read())["error"]

    def test_missing_field_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url + "/compile", {"target": "c99"})
        assert excinfo.value.code == 400

    def test_wrong_field_type_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url + "/compile", {"core": 42, "target": "c99"})
        assert excinfo.value.code == 400

    def test_unknown_target_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url + "/compile", {"core": SRC, "target": "nonesuch"})
        assert excinfo.value.code == 400
        assert "unknown target" in json.loads(excinfo.value.read())["error"]

    def test_unparseable_core_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url + "/compile", {"core": "(FPCore", "target": "c99"})
        assert excinfo.value.code == 400

    def test_error_responses_close_the_connection(self, server):
        """A 4xx without a drained body must not desync keep-alive reuse."""
        import socket

        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            body = b'{"x": 1}'
            sock.sendall(
                (
                    f"POST /nope HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode() + body
            )
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            received = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        assert b"Connection: close" in received
        # the leftover body must never be parsed as a second request line
        assert b"Bad request syntax" not in received

    def test_unparseable_score_program_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                base_url + "/score",
                {"core": SRC, "target": "c99", "program": "(bogus x"},
            )
        assert excinfo.value.code == 400
        assert "unparseable program" in json.loads(excinfo.value.read())["error"]

    def test_unknown_endpoint_is_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url + "/nonesuch", {})
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base_url + "/nonesuch")
        assert excinfo.value.code == 404


class TestConnections:
    def test_accepted_connection_has_nodelay(self, base_url, monkeypatch):
        """Replies go out as a header send and a body send; without
        TCP_NODELAY the body waits on the client's delayed ACK."""
        seen = []
        original = ChassisRequestHandler.setup

        def recording_setup(handler):
            original(handler)
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ))

        monkeypatch.setattr(ChassisRequestHandler, "setup", recording_setup)
        status, _headers, _body = _get(base_url + "/health")
        assert status == 200
        assert seen and all(seen)


class TestOtherEndpoints:
    def test_health_reports_session_and_cache_stats(self, base_url):
        status, _headers, body = _get(base_url + "/health")
        payload = json.loads(body)
        assert status == 200 and payload["ok"] is True
        assert "compiles" in payload["stats"]
        assert "hits" in payload["cache"]

    def test_fresh_cache_health_shows_zero_counters(self, tmp_path):
        """An empty cache is falsy (its length); /health must still report
        its counters rather than null."""
        session = ChassisSession(
            config=FAST, sample_config=SAMPLES, cache=str(tmp_path)
        )
        fresh = create_server(session)
        thread = threading.Thread(target=fresh.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = fresh.server_address[:2]
            _status, _headers, body = _get(f"http://{host}:{port}/health")
        finally:
            fresh.shutdown()
            fresh.server_close()
            thread.join(timeout=10)
        cache = json.loads(body)["cache"]
        assert cache is not None
        assert set(cache.values()) == {0}
        assert json.loads(body)["provenance"] is not None

    def test_targets_lists_registry(self, base_url):
        _status, _headers, body = _get(base_url + "/targets")
        names = {row["name"] for row in json.loads(body)["targets"]}
        assert {"c99", "avx", "fdlibm"} <= names

    def test_batch_rows_share_the_report_shape(self, base_url):
        status, _headers, body = _post(
            base_url + "/batch", {"cores": [SRC2], "targets": ["c99", "arith"]}
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["summary"]["ok"] == 2
        for row in payload["outcomes"]:
            assert list(row)[:4] == ["benchmark", "target", "fingerprint", "status"]
            assert row["frontier"] and "program" in row["frontier"][0]

    def test_score_endpoint(self, base_url):
        status, _headers, body = _post(
            base_url + "/score", {"core": SRC, "target": "c99"}
        )
        payload = json.loads(body)
        assert status == 200
        assert payload["benchmark"] == "f"
        assert payload["error_bits"] >= 0.0
