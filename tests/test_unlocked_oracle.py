"""In-process compiles share no process-global mpmath state.

Series expansion borrows private mpmath contexts, the double-double
constants come from libmp at an explicit precision, the ladder keeps no
state, and a backend's counters are exact, so threads of one session
need no oracle lock.
"""

from __future__ import annotations

import json
import sys
import threading

import mpmath
from mpmath import mp, mpf

from repro.benchsuite import core_named
from repro.core.series import series_candidates, taylor_coeffs
from repro.ir import parse_expr
from repro.ir.printer import expr_to_sexpr
from repro.rival.backends import MpmathBackend
from repro.rival.backends import dd
from repro.session import ChassisSession


def _run_threads(bodies, *, flip_precision=False, switch=None) -> None:
    """Run each body on its own thread (optionally beside a thread that
    flips the global ``mp.prec`` between 8 and 4000 bits) and join them."""
    stop = threading.Event()

    def flipper():
        saved = mp.prec
        try:
            while not stop.is_set():
                for prec in (8, 4000):
                    mp.prec = prec
        finally:
            mp.prec = saved

    flip = threading.Thread(target=flipper) if flip_precision else None
    workers = [threading.Thread(target=body) for body in bodies]
    interval = sys.getswitchinterval()
    if switch is not None:
        sys.setswitchinterval(switch)
    try:
        if flip is not None:
            flip.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in workers)
    finally:
        stop.set()
        if flip is not None:
            flip.join(timeout=10)
        sys.setswitchinterval(interval)
    assert flip is None or not flip.is_alive()


def test_series_ignore_the_global_precision():
    """Expansions on two threads, while a third flips ``mp.prec`` and
    thread switches come every microsecond, give the serial results."""
    exprs = [
        parse_expr("(- (exp x) 1)"),
        parse_expr("(/ (- 1 (cos x)) (* x x))"),
        parse_expr("(- (sqrt (+ (* x x) 1)) x)"),
    ]

    def run():
        out = [taylor_coeffs(expr, "x", 0.0, 5) for expr in exprs]
        out += [
            [expr_to_sexpr(c) for c in series_candidates(expr, degree=3)]
            for expr in exprs
        ]
        return out

    serial = run()
    results = [None, None]

    def worker(i):
        results[i] = [run() for _ in range(3)]

    _run_threads(
        [lambda: worker(0), lambda: worker(1)],
        flip_precision=True, switch=1e-6,
    )
    for got in results:
        assert got == [serial] * 3


def test_dd_constants_match_a_200_bit_reference():
    def split(x):
        hi = float(x)
        return hi, float(x - mpf(hi))

    with mp.workprec(200):
        reference = {
            "_PI": split(mpmath.pi),
            "_E": split(mpmath.e),
            "_PI_2": split(mpmath.pi / 2),
            "_LN2": split(mpmath.ln(2)),
            "_INV_LN2": split(1 / mpmath.ln(2)),
            "_INV_LN10": split(1 / mpmath.ln(10)),
            "_TWO_OVER_PI_F": float(2 / mpmath.pi),
        }
    assert {name: getattr(dd, name) for name in reference} == reference


def test_evaluator_counts_are_exact_across_threads():
    """Four threads (more than the usual core count) share one ladder
    backend, one point per batch; a lost ``+=`` update would leave its
    counters short."""
    backend = MpmathBackend()
    expr = parse_expr("(+ x 1)")
    n = 1000

    def body():
        for k in range(n):
            backend.eval_batch(expr, [{"x": float(k)}])

    _run_threads([body] * 4, switch=1e-6)
    counters = backend.counters()
    assert counters.evals == counters.batch_points == 4 * n
    assert counters.batch_calls == 4 * n
    assert counters.escalations == 0


def test_concurrent_inline_compiles_match_a_serial_run():
    """Two series-heavy compiles on two threads of one lock-free session
    serialize to the bytes of the same compiles run one after another."""
    def digest(payload: dict) -> str:
        # ``elapsed`` is wall-clock time, the only nondeterministic field.
        return json.dumps(
            {k: v for k, v in payload.items() if k != "elapsed"}, sort_keys=True
        )

    jobs = [("exp-frac", "avx"), ("cos-frac", "arith")]
    with ChassisSession() as session:
        serial = [
            digest(session.compile_payload(core_named(name), target)[0])
            for name, target in jobs
        ]
    got = [None, None]
    with ChassisSession() as session:

        def worker(i):
            name, target = jobs[i]
            got[i] = digest(session.compile_payload(core_named(name), target)[0])

        _run_threads([lambda: worker(0), lambda: worker(1)])
        assert session.pool_info() is None
    assert got == serial
