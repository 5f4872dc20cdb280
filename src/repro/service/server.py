"""``repro serve``: a long-running JSON-over-HTTP compilation front-end.

One warm :class:`~repro.session.ChassisSession` behind a stdlib
:class:`~http.server.ThreadingHTTPServer` — no third-party dependencies.
Repeated requests hit the session's sample cache, evaluator and persistent
result cache instead of paying process start-up per compilation.

Endpoints (all bodies JSON):

* ``GET  /health``  — liveness plus session/cache/worker-pool statistics,
  engine counters folded back from pooled workers, and oracle activity.
* ``GET  /metrics`` — the process metrics registry (:mod:`repro.obs`) in
  Prometheus text exposition format, plus session-state gauges.
* ``GET  /targets`` — the registered target descriptions (figure 6 data).
* ``GET  /provenance`` — the session's provenance-ledger info, or — with
  ``?fingerprint=<digest-or-8+-char-prefix>`` — every ledger record of
  that job (404 without a ledger or a match).
* ``POST /compile`` — ``{"core": "<FPCore src>", "target": "c99"}`` plus
  optional ``iterations``/``points``/``seed``/``timeout`` knobs.  A cold
  compile runs on the session's warm worker pool when it has one (any
  knobs share the same workers) and inline in the handler thread
  otherwise.  Responds
  with ``{"status": "ok", ..., "result": <payload>}``; an identical second
  request is served from the warm cache with a **byte-identical** body
  (the ``X-Repro-Cached`` header is the only difference).  The opt-in
  ``"timings": true`` knob adds a per-phase wall-clock breakdown *outside*
  the result payload (null on warm hits — no phases ran), so the cached
  result bytes stay deterministic; the opt-in ``"provenance": true`` knob
  likewise attaches the job's ledger record — and, on warm hits, the
  origin record of the compilation that produced the cached bytes.
* ``POST /batch``   — ``{"cores": [...], "targets": [...]}``; the cross
  product through the session's *persistent* worker pool + cache (each
  benchmark sampled once, shared across targets), reported in the same
  row shape as ``repro batch --report``.
* ``POST /score``   — ``{"core": ..., "target": ..., "program": ...?}``;
  mean bits of error of a program (default: the transcribed input).
* ``POST /validate`` — ``{"core": ..., "target": ..., "program": ...?,
  "backend": "auto"|"c"|"python"?}``; compiles (through the session's
  worker pool when it has one), *executes* the emitted code — a
  system-compiler-built shared library, or the sandboxed Python backend
  when no C compiler exists — and reports empirical-vs-oracle and
  empirical-vs-machine agreement with per-point mismatch localization
  (:class:`~repro.exec.validate.ValidationReport`).

Malformed requests (bad JSON, missing/unknown fields, unparseable cores)
get a 4xx with ``{"error": ...}``; infeasible benchmark/target pairs are
*data*, not errors, and come back 200 with ``"status": "failed"`` exactly
like batch outcomes.  Compilations that exceed their deadline — the
session ``--timeout`` or a per-request ``timeout`` knob, enforced by a
thread-safe cooperative deadline even for inline compiles in handler
threads — come back 200 with ``"status": "timeout"`` the same way.  A
per-connection socket timeout stops dead keep-alive peers from pinning
handler threads.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..accuracy.sampler import SamplingError
from ..core.transcribe import Untranscribable
from ..deadline import DeadlineExceeded
from ..exec.builder import BuildError
from ..exec.executable import BACKENDS
from ..exec.python_backend import PythonExecError
from ..ir.parser import parse_expr
from ..obs.metrics import METRICS
from ..targets import TARGET_NAMES
from .batch import report_line

#: Routes that may appear as metric labels; anything else (scans, typos)
#: collapses to one bucket so label cardinality stays bounded.
_KNOWN_ROUTES = frozenset({
    "/health", "/metrics", "/targets", "/provenance",
    "/compile", "/batch", "/score", "/validate",
})

#: Request-size ceiling (bytes): far above any benchmark, far below a DoS.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Default per-connection socket timeout (seconds): a dead keep-alive peer
#: must not pin a handler thread forever.  Only socket reads/writes count
#: against it — a long compile between them does not.
REQUEST_SOCKET_TIMEOUT = 60.0


class RequestError(ValueError):
    """A client-side problem: reported as a 4xx, never a stack trace."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _require(body: dict, key: str, kind: type) -> object:
    value = body.get(key)
    if not isinstance(value, kind):
        raise RequestError(
            f"field {key!r} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


class ChassisRequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto the server's shared session."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: Per-connection socket timeout; BaseHTTPRequestHandler applies it via
    #: ``connection.settimeout`` in setup(), and handle_one_request treats
    #: an expiry while awaiting the next request line as connection close.
    timeout = REQUEST_SOCKET_TIMEOUT
    #: Set TCP_NODELAY on each connection (StreamRequestHandler.setup):
    #: a reply's headers and body go out as two sends, and with Nagle's
    #: algorithm the body waits for the client's delayed ACK of the
    #: headers, about 40 ms per reply.
    disable_nagle_algorithm = True

    def setup(self):
        self.timeout = getattr(
            self.server, "request_timeout", REQUEST_SOCKET_TIMEOUT
        )
        super().setup()

    @property
    def session(self):
        return self.server.session

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # --- plumbing -------------------------------------------------------------------

    def _send_json(self, status: int, obj: dict, headers: dict | None = None) -> None:
        self._last_status = status
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # Error paths may not have drained the request body; reusing
            # the keep-alive connection would parse the leftover bytes as
            # the next request line, so close it instead.
            self.close_connection = True
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._last_status = status
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _observe_request(self, path: str, start: float) -> None:
        route = path if path in _KNOWN_ROUTES else "<other>"
        METRICS.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route and response status.",
            route=route, status=str(getattr(self, "_last_status", 0)),
        ).inc()
        METRICS.histogram(
            "repro_http_request_seconds",
            "Wall-clock seconds handling each HTTP request, by route.",
            route=route,
        ).observe(time.perf_counter() - start)

    def _read_body(self) -> dict:
        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            raise RequestError("missing or invalid Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise RequestError(f"body too large (limit {MAX_BODY_BYTES} bytes)", 413)
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except ValueError:
            raise RequestError("request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise RequestError("request body must be a JSON object")
        return body

    def _configs_from(self, body: dict):
        """Per-request knob overrides on top of the session defaults."""
        session = self.session
        config, sample_config = session.config, session.sample_config
        if "iterations" in body:
            iterations = _require(body, "iterations", int)
            if iterations < 0:
                raise RequestError("iterations must be >= 0")
            config = dataclasses.replace(config, iterations=iterations)
        points = seed = None
        if "points" in body:
            points = _require(body, "points", int)
            if points < 1:
                raise RequestError("points must be >= 1")
        if "seed" in body:
            seed = _require(body, "seed", int)
        if points is not None or seed is not None:
            sample_config = dataclasses.replace(
                sample_config,
                **({"n_train": points, "n_test": points} if points is not None else {}),
                **({"seed": seed} if seed is not None else {}),
            )
        return config, sample_config

    def _timeout_from(self, body: dict) -> float | None:
        """Optional per-request ``timeout`` knob (seconds; None = session
        default).  The thread-safe deadline makes this honest for inline
        compiles in handler threads, not just pool-dispatched jobs."""
        if "timeout" not in body:
            return None
        timeout = body["timeout"]
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise RequestError("field 'timeout' must be a number (seconds)")
        if timeout <= 0:
            raise RequestError("timeout must be positive")
        return float(timeout)

    def _parse_core(self, source: str, target):
        try:
            return self.session.parse(source, target)
        except Exception as error:
            raise RequestError(f"unparseable FPCore: {error}") from None

    def _resolve_target(self, name: str):
        if name not in TARGET_NAMES:
            raise RequestError(
                f"unknown target {name!r}; available: {', '.join(TARGET_NAMES)}"
            )
        return self.session.resolve_target(name)

    # --- routes ---------------------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib naming
        path = urlparse(self.path).path
        start = time.perf_counter()
        if path == "/health":
            self._send_json(200, self.session.health())
        elif path == "/metrics":
            self._send_text(
                200, METRICS.exposition(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == "/targets":
            self._send_json(200, {"targets": self.session.targets_info()})
        elif path == "/provenance":
            self._get_provenance()
        else:
            self._send_json(404, {"error": f"no such endpoint: {path}"})
        self._observe_request(path, start)

    def _get_provenance(self) -> None:
        """``GET /provenance`` — ledger info, or — with a ``fingerprint``
        query parameter (64-char digest or an 8+-char prefix) — every
        record of that job.  404 when the session has no ledger (no
        persistent cache) or no record matches."""
        session = self.session
        if session.ledger is None:
            self._send_json(404, {
                "error": "no provenance ledger (session has no persistent "
                         "cache; start with --cache-dir)"
            })
            return
        query = parse_qs(urlparse(self.path).query)
        fingerprint = query.get("fingerprint", [""])[0]
        if not fingerprint:
            self._send_json(200, session.ledger.info())
            return
        records = session.provenance_for(fingerprint)
        if not records:
            self._send_json(404, {
                "error": f"no provenance records for {fingerprint!r}"
            })
            return
        self._send_json(200, {"fingerprint": fingerprint, "records": records})

    def do_POST(self):  # noqa: N802 - stdlib naming
        path = urlparse(self.path).path
        start = time.perf_counter()
        handler = {
            "/compile": self._post_compile,
            "/batch": self._post_batch,
            "/score": self._post_score,
            "/validate": self._post_validate,
        }.get(path)
        if handler is None:
            self._send_json(404, {"error": f"no such endpoint: {path}"})
            self._observe_request(path, start)
            return
        try:
            handler(self._read_body())
        except RequestError as error:
            self._send_json(error.status, {"error": str(error)})
        except TimeoutError:
            # The peer stalled mid-request (socket timeout): the connection
            # is beyond saving, so release the handler thread quietly.
            self.close_connection = True
        except DeadlineExceeded as error:
            # Like a failed benchmark/target pair, a timeout is data, not a
            # server error (routes with more context respond before this).
            self._send_json(200, {
                "status": "timeout",
                "error_type": "JobTimeout",
                "error": str(error) or "compilation deadline exceeded",
            })
        except Exception as error:  # noqa: BLE001 - a bug must not kill the server
            self._send_json(
                500, {"error": str(error), "error_type": type(error).__name__}
            )
        finally:
            self._observe_request(path, start)

    def _post_compile(self, body: dict) -> None:
        target = self._resolve_target(_require(body, "target", str))
        core = self._parse_core(_require(body, "core", str), target)
        config, sample_config = self._configs_from(body)
        timeout = self._timeout_from(body)
        want_timings = body.get("timings", False)
        if not isinstance(want_timings, bool):
            raise RequestError("field 'timings' must be a boolean")
        want_provenance = body.get("provenance", False)
        if not isinstance(want_provenance, bool):
            raise RequestError("field 'provenance' must be a boolean")
        benchmark = core.name or "<anonymous>"
        try:
            payload, cached = self.session.compile_payload(
                core, target, config=config, sample_config=sample_config,
                timeout=timeout,
            )
        except (Untranscribable, SamplingError) as error:
            self._send_json(200, {
                "status": "failed",
                "benchmark": benchmark,
                "target": target.name,
                "error_type": type(error).__name__,
                "error": str(error),
            }, headers={"X-Repro-Cached": "0"})
            return
        except DeadlineExceeded:
            # Raised for pooled and inline compiles alike; inline ones run
            # in this handler thread, where SIGALRM cannot arm, and are
            # bounded by the cooperative deadline.
            effective = timeout if timeout is not None else self.session.timeout
            self._send_json(200, {
                "status": "timeout",
                "benchmark": benchmark,
                "target": target.name,
                "error_type": "JobTimeout",
                "error": f"exceeded {effective}s",
            }, headers={"X-Repro-Cached": "0"})
            return
        # The body is built from the stored payload, so a warm repeat of an
        # identical request is byte-identical; only the header differs.
        # Per-phase timings are opt-in and ride *outside* the result (they
        # are non-deterministic wall clock and must never enter the cached
        # bytes); a warm hit reports null — no phases ran.
        response = {
            "status": "ok",
            "benchmark": benchmark,
            "target": target.name,
            "result": payload,
        }
        if want_timings:
            response["timings"] = (
                None if cached else self.session.last_phase_timings()
            )
        if want_provenance:
            # Also opt-in and also outside the result payload.  On a warm
            # hit this carries the *origin* record of the compilation that
            # produced the cached bytes (resolved lazily — only clients
            # who ask pay the ledger scan), so warm responses are
            # auditable while their cached bytes stay identical.
            response["provenance"] = self.session.last_provenance()
        self._send_json(
            200, response, headers={"X-Repro-Cached": "1" if cached else "0"}
        )

    def _post_batch(self, body: dict) -> None:
        sources = _require(body, "cores", list)
        target_names = _require(body, "targets", list)
        if not sources or not target_names:
            raise RequestError("cores and targets must be non-empty lists")
        if not all(isinstance(name, str) for name in target_names):
            raise RequestError("targets must be a list of target names")
        if not all(isinstance(source, str) for source in sources):
            raise RequestError("cores must be a list of FPCore source strings")
        targets = [self._resolve_target(name) for name in target_names]
        cores = [self._parse_core(source, None) for source in sources]
        config, sample_config = self._configs_from(body)
        timeout = self._timeout_from(body)
        # Multi-target batches sample each benchmark once and share the
        # points across targets; see ChassisSession.shared_samples_for
        # for the warm-cache and failure-capture rules.
        shared_samples = self.session.shared_samples_for(
            cores, targets,
            config=config, sample_config=sample_config, timeout=timeout,
        )
        outcomes = self.session.compile_many(
            [
                (core, target, samples)
                for target in targets
                for core, samples in zip(cores, shared_samples)
            ],
            config=config,
            sample_config=sample_config,
            timeout=timeout,
        )
        self._send_json(200, {
            "outcomes": [report_line(outcome) for outcome in outcomes],
            "summary": {
                "ok": sum(o.ok for o in outcomes),
                "failed": sum(o.status == "failed" for o in outcomes),
                "timeout": sum(o.status == "timeout" for o in outcomes),
                "cached": sum(o.cached for o in outcomes),
            },
        })

    def _post_validate(self, body: dict) -> None:
        target = self._resolve_target(_require(body, "target", str))
        core = self._parse_core(_require(body, "core", str), target)
        config, sample_config = self._configs_from(body)
        timeout = self._timeout_from(body)
        backend = body.get("backend", "auto")
        if backend not in BACKENDS:
            raise RequestError(
                f"field 'backend' must be one of {', '.join(BACKENDS)}"
            )
        program = body.get("program")
        if program is not None:
            if not isinstance(program, str):
                raise RequestError("field 'program' must be a string")
            try:
                program = parse_expr(program, known_ops=set(target.operators))
            except Exception as error:
                raise RequestError(f"unparseable program: {error}") from None
        benchmark = core.name or "<anonymous>"
        try:
            report = self.session.validate(
                core, target, program=program, backend=backend,
                config=config, sample_config=sample_config, timeout=timeout,
            )
        except (Untranscribable, SamplingError, BuildError, PythonExecError) as error:
            # Infeasible pair / forced backend without a compiler /
            # unexecutable emitted source: data, not a server error —
            # same contract as /compile failures.
            self._send_json(200, {
                "status": "failed",
                "benchmark": benchmark,
                "target": target.name,
                "error_type": type(error).__name__,
                "error": str(error),
            })
            return
        except DeadlineExceeded:
            effective = timeout if timeout is not None else self.session.timeout
            self._send_json(200, {
                "status": "timeout",
                "benchmark": benchmark,
                "target": target.name,
                "error_type": "JobTimeout",
                "error": f"exceeded {effective}s",
            })
            return
        self._send_json(200, {
            "status": "ok",
            "benchmark": benchmark,
            "target": target.name,
            "report": report.as_dict(),
        })

    def _post_score(self, body: dict) -> None:
        target = self._resolve_target(_require(body, "target", str))
        core = self._parse_core(_require(body, "core", str), target)
        program = body.get("program")
        if program is not None and not isinstance(program, str):
            raise RequestError("field 'program' must be a string")
        if program is not None:
            # Pre-parse here so a bad program is the client's 400, not a 500
            # (mirrors _parse_core for the benchmark itself).
            try:
                program = parse_expr(program, known_ops=set(target.operators))
            except Exception as error:
                raise RequestError(f"unparseable program: {error}") from None
        try:
            error_bits = self.session.score(core, target, program)
        except (Untranscribable, SamplingError) as error:
            raise RequestError(
                f"{type(error).__name__}: {error}", status=422
            ) from None
        except KeyError as error:
            raise RequestError(f"unknown operator in program: {error}") from None
        self._send_json(200, {
            "benchmark": core.name or "<anonymous>",
            "target": target.name,
            "error_bits": error_bits,
        })


class ChassisServer(ThreadingHTTPServer):
    """HTTP server bound to one shared :class:`ChassisSession`."""

    daemon_threads = True

    def __init__(
        self,
        address,
        session,
        verbose: bool = False,
        request_timeout: float | None = REQUEST_SOCKET_TIMEOUT,
    ):
        super().__init__(address, ChassisRequestHandler)
        self.session = session
        self.verbose = verbose
        #: Per-connection socket timeout (None disables); handlers read it
        #: in setup().  Guards against stalled keep-alive peers, not
        #: against long compiles.
        self.request_timeout = request_timeout
        self._register_session_gauges()

    def _register_session_gauges(self) -> None:
        """Expose live session state on ``/metrics`` as gauges.

        Computed at exposition time from the bound session; re-binding a
        new server replaces the callables (``gauge_fn`` re-registration),
        so a fresh session never scrapes a dead one's closures.
        """
        session = self.session
        gauges = {
            "repro_session_compiles":
                ("Fresh compilations completed over the session's lifetime.",
                 lambda: session.stats.compiles),
            "repro_session_cache_hits":
                ("Compile requests answered from the persistent cache.",
                 lambda: session.stats.cache_hits),
            "repro_session_failures":
                ("Compilations that raised over the session's lifetime.",
                 lambda: session.stats.failures),
            "repro_session_timeouts":
                ("Compilations that exceeded their deadline.",
                 lambda: session.stats.timeouts),
            "repro_session_engine_enodes_built":
                ("E-nodes built by the e-graph engine, inline and pooled.",
                 lambda: session.stats.engine.enodes_built),
            "repro_oracle_evals":
                ("Correctly-rounded oracle ladder evaluations, in-process "
                 "plus folded back from pooled workers.",
                 lambda: (session.evaluator.evals
                          + session.stats.rival.evals)),
            "repro_oracle_fastpath_points":
                ("Batched oracle points settled by the vectorized fast "
                 "path without touching the mpmath ladder.",
                 lambda: (session.oracle.counters().fastpath_hits
                          + session.stats.rival.fastpath_hits)),
            "repro_oracle_dd_points":
                ("Batched oracle points settled by the double-double "
                 "rung specifically (subset of the fast-path points).",
                 lambda: (session.oracle.counters().dd_hits
                          + session.stats.rival.dd_hits)),
        }
        for name, (help_text, fn) in gauges.items():
            METRICS.gauge_fn(name, fn, help_text)


def create_server(
    session=None,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    request_timeout: float | None = REQUEST_SOCKET_TIMEOUT,
) -> ChassisServer:
    """Build (but do not start) a server; ``port=0`` picks a free port.

    The bound address is ``server.server_address``; run it with
    ``serve_forever()`` (tests drive it from a thread) and stop it with
    ``shutdown()`` + ``server_close()``.
    """
    if session is None:
        from ..session import ChassisSession

        session = ChassisSession()
    return ChassisServer(
        (host, port), session, verbose=verbose, request_timeout=request_timeout
    )


def serve(
    session=None,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
) -> int:
    """Run the front-end until interrupted (the ``repro serve`` command).

    Shuts down cleanly on SIGINT *and* SIGTERM (supervisors and CI send
    the latter; background shells ignore the former).

    A session with a worker pool starts its workers here, from the
    still single-threaded main thread and before the listening socket
    exists, so they are forked from the already-imported process (not
    started through a forkserver) and inherit no server socket.
    """
    pool = session.worker_pool() if session is not None else None
    if pool is not None:
        pool.start()
    server = create_server(session, host, port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro serve: listening on http://{bound_host}:{bound_port}", file=sys.stderr)
    def _terminate(_signum, _frame):
        raise KeyboardInterrupt

    def _set_handlers(handler):
        try:
            import signal

            signal.signal(signal.SIGTERM, handler)
            signal.signal(signal.SIGINT, handler)
        except (ValueError, OSError, AttributeError):
            pass  # not the main thread (tests) or no signals on this platform

    _set_handlers(_terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # A repeated SIGTERM/SIGINT (supervisors often send both, and some
        # wrappers forward the signal twice) must not interrupt the drain:
        # a KeyboardInterrupt raised inside pool.terminate() would orphan
        # the teardown half-way.  But the drain can block indefinitely
        # (e.g. a hung in-flight batch with no --timeout), so further
        # signals mean "force quit now" rather than being ignored — the
        # standard second-signal contract.
        def _force_exit(_signum, _frame):
            import os

            print(
                "repro serve: forced exit before drain completed",
                file=sys.stderr,
            )
            os._exit(1)

        _set_handlers(_force_exit)
        server.server_close()
        session = server.session
        session.close()  # drain the submit executor and worker pool
        print(f"repro serve: shut down ({session.stats.as_dict()})", file=sys.stderr)
    return 0
