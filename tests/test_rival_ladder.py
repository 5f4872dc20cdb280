"""The libmp ladder reproduces the mpf ladder it replaced, bit for bit.

:mod:`repro.rival` computes on raw libmp values at an explicit precision.
These tests run it beside the frozen mpf implementation
(``tests/rival_reference.py``, which works under ``mp.workprec``) and
compare:

* every ``INTERVAL_OPS`` operator's ``(lo, hi, err)`` at every rung of
  ``DEFAULT_PRECISIONS``, over special points (signed zeros, subnormals,
  huge values, domain edges, points near multiples of pi/2) and
  intervals between them;
* whole expressions, rung by rung, and the evaluator's outcome (value
  bits including the sign of zero, or the exception type) in binary64,
  binary32, binary16 and bfloat16;
* ``eval_bool`` on comparisons, ``and``/``or``/``not`` and ``if``;
* the constants, rational literals, and generator cores lowered for
  several targets.

Integer literals stay within 80 significant bits here, where both
implementations are exact; wider ones are the subject of
``tests/test_rival.py::TestWideIntegerLiterals``.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading

import pytest
import rival_reference as ref
from mpmath import mp

from repro.accuracy import SampleConfig, sample_core
from repro.benchsuite.generator import generate_core
from repro.core.transcribe import Untranscribable, transcribe_with_poly
from repro.ir import parse_expr
from repro.ir.expr import App
from repro.rival import DEFAULT_PRECISIONS, INTERVAL_OPS, Interval, RivalEvaluator
from repro.rival.eval import _Pass
from repro.rival.interval import exact
from repro.targets import get_target

FORMATS = ("binary64", "binary32", "binary16", "bfloat16")

_HALF_PI = math.pi / 2

#: Special points: signed zeros, subnormals, the normal boundary, huge
#: values, infinities, NaN, domain edges and points near multiples of
#: pi/2 (where sin/cos/tan reduce their argument hardest).  Magnitudes
#: near 2**-983 and 2**202 sit at the edges of the widening margin's
#: shortcut (``interval._margin``).
SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1e-250, -1e-200, 3.6976030963555856e-192,
    1e-300, 2.0**-985, -(2.0**-975), 1e-20, 1e-8, -1e-5, 0.001, 0.5, -0.5,
    0.9999999999999999, 1.0,
    1.0000000000000002, -1.0, -0.9999999999999999, -1.0000000000000002,
    2.0, 3.0, -7.5, 10.5, 100.0, 709.0, 710.0, -745.0, 1e16, 1e22, 1e61,
    -(2.0**202), 1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
    _HALF_PI, -_HALF_PI, math.pi, 2 * math.pi, 3 * _HALF_PI,
    1e6 * math.pi, 1.5707963267948968, 3.141592653589793 * 2**30,
)

_FINITE = sorted(x for x in SPECIAL if math.isfinite(x))

#: Non-point intervals: neighbours in the sorted special points, spans
#: across zero and across pi/2, and half-infinite ones.
SPANS = (
    list(zip(_FINITE, _FINITE[1:]))
    + [(-1.0, 1.0), (-3.0, 2.0), (1.0, 2.0), (0.0, 100.0), (-100.0, -0.5),
       (1.5, 1.6), (0.001, 1e16), (-math.inf, 0.0), (1.0, math.inf),
       (-math.inf, math.inf), (0.9999999999999999, 1.0000000000000002)]
)

BINARY = {"+", "-", "*", "/", "pow", "hypot", "atan2", "fmin", "fmax",
          "copysign", "fmod"}
UNARY = sorted(set(INTERVAL_OPS) - BINARY)


def _arguments(values, spans):
    """(new, reference-builder) pairs: points, spans and the error interval."""
    args = [(Interval.point(x), lambda x=x: ref.Interval.point(x)) for x in values]
    args += [
        (Interval(exact(lo), exact(hi)), lambda lo=lo, hi=hi: ref.Interval(lo, hi))
        for lo, hi in spans
    ]
    args.append((Interval.error(), ref.Interval.error))
    return args


def _triple(iv) -> tuple:
    lo = iv.lo if isinstance(iv.lo, tuple) else iv.lo._mpf_
    hi = iv.hi if isinstance(iv.hi, tuple) else iv.hi._mpf_
    return lo, hi, iv.err


def _call(fn):
    try:
        return _triple(fn())
    except Exception as exc:  # compared by type
        return type(exc)


def _check_op(op, new_args, ref_builders):
    new_fn = INTERVAL_OPS[op]
    ref_fn = ref.INTERVAL_OPS[op]
    for prec in DEFAULT_PRECISIONS:
        got = _call(lambda: new_fn(*new_args, prec))
        with mp.workprec(prec):
            want = _call(lambda: ref_fn(*(build() for build in ref_builders)))
        assert got == want, (op, prec, [_triple(a) for a in new_args])


@pytest.mark.parametrize("op", UNARY)
def test_unary_op_every_rung(op):
    for new_arg, build in _arguments(SPECIAL, SPANS):
        _check_op(op, (new_arg,), (build,))


_BINARY_VALUES = (0.0, -0.0, 5e-324, 1e-250, 0.5, -1.0, 2.0, 3.0, -7.5,
                  1e22, -1e300, math.inf, _HALF_PI)
_BINARY_SPANS = ((-1.0, 1.0), (1.0, 2.0), (-3.0, -0.5), (0.0, 100.0),
                 (1.0, math.inf))


@pytest.mark.parametrize("op", sorted(BINARY))
def test_binary_op_every_rung(op):
    args = _arguments(_BINARY_VALUES, _BINARY_SPANS)
    for (a, build_a), (b, build_b) in itertools.product(args, repeat=2):
        _check_op(op, (a, b), (build_a, build_b))


# --- whole expressions, rung by rung and through the evaluator ---------------------

EXPRESSIONS = (
    "(- x (sin x))", "(- (tan x) (sin x))", "(- (sqrt (+ x 1)) (sqrt x))",
    "(/ (- (exp x) 1) x)", "(- 1 (cos x))", "(log1p (expm1 x))",
    "(expm1 (log1p x))", "(log2 (+ x 1))", "(log10 (fabs x))",
    "(pow x 3)", "(pow x -2)", "(pow (fabs x) 0.5)", "(exp2 x)",
    "(* x x)", "(/ 1 x)", "(hypot x 1)", "(atan2 x -1)", "(atan2 1 x)",
    "(cbrt x)", "(asin (/ x (+ (fabs x) 1)))", "(acos (tanh x))",
    "(atanh (tanh x))", "(acosh (+ (fabs x) 1))", "(asinh x)",
    "(cosh x)", "(sinh x)", "(fmod x 3)", "(fmod x PI)", "(floor x)",
    "(ceil x)", "(round (* x 10))", "(trunc x)", "(copysign 2 x)",
    "(fmin x 1/3)", "(fmax x -2/7)", "(- (* PI x) (* E x))",
    "(+ x INFINITY)", "(- x INFINITY)", "(+ x NAN)", "(* x 0.1)",
    "(+ x 12345678901234567890123)", "(/ x 7/1234567)",
    "(if (< x 0) (- x) (sqrt x))", "(if (== x 1) 0 (log x))",
    "(- (+ x 1e16) 1e16)",
)

#: Points per expression: the special points, without the ones that
#: make the reference ladder slow (the huge exponents of 1e300**k).
POINTS = tuple(x for x in SPECIAL if not (math.isfinite(x) and abs(x) > 1e200))


def _outcome(fn):
    try:
        value = fn()
    except Exception as exc:
        return type(exc)
    return float.hex(value) if isinstance(value, float) else value


def _check_expression(expr, point, formats=FORMATS):
    run = _Pass(point)
    for prec in DEFAULT_PRECISIONS:
        got = _call(lambda: run.interval(expr, prec))
        with mp.workprec(prec):
            want = _call(lambda: ref._eval_interval(expr, point))
        assert got == want, (str(expr), point, prec)
    new, old = RivalEvaluator(), ref.RivalEvaluator()
    for ty in formats:
        got = _outcome(lambda: new.eval(expr, point, ty))
        want = _outcome(lambda: old.eval(expr, point, ty))
        assert got == want, (str(expr), point, ty)


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_expression_every_rung_and_format(text):
    expr = parse_expr(text)
    for x in POINTS:
        _check_expression(expr, {"x": x})


def test_constants_and_rational_literals():
    for text in ("PI", "E", "(- PI 355/113)", "(- E 2718281828/1000000000)",
                 "1/3", "-5/7", "(* 1/10 10)", "INFINITY", "NAN",
                 "(neg INFINITY)", "(sin PI)", "(cos PI)", "(tan (/ PI 2))"):
        _check_expression(parse_expr(text), {})


CONDITIONS = (
    "(< x 1)", "(<= x 1)", "(> x 1)", "(>= x 1)", "(== x 1)", "(!= x 1)",
    "(< (* x x) 2)", "(== (sin x) (sin x))", "(!= (- x x) 0)",
    "(and (< 0 x) (< x 1))", "(or (< x -1) (> x 1))", "(not (< x 0))",
    "(and (not (== x 0)) (or (< (sqrt x) 2) (> (log x) 5)))",
    "(< (if (< x 0) (neg x) x) 1e300)", "(< (exp x) INFINITY)",
    "(< 0.001 x)", "(< x 1/3)", "(== x 12345678901234567890123)",
)


@pytest.mark.parametrize("text", CONDITIONS)
def test_eval_bool_matches(text):
    expr = parse_expr(text)
    new, old = RivalEvaluator(), ref.RivalEvaluator()
    for x in SPECIAL:
        point = {"x": x}
        got = _outcome(lambda: new.eval_bool(expr, point))
        want = _outcome(lambda: old.eval_bool(expr, point))
        assert got == want, (text, x)


def _subexpressions(expr):
    yield expr
    if isinstance(expr, App):
        for arg in expr.args:
            yield from _subexpressions(arg)


@pytest.mark.parametrize("target,ty", [
    ("c99", "binary64"), ("fdlibm", "binary64"), ("avx", "binary64"),
    ("c99", "binary32"), ("fp16", "binary16"), ("bf16", "bfloat16"),
])
def test_generated_cores_on_targets(target, ty):
    """Every subexpression of the real body and of its lowering for the
    target (desugared back to reals, as local error sees it), at sampled
    points, in the target's format."""
    tgt = get_target(target)
    config = SampleConfig(n_train=6, n_test=0, seed=3, min_points=1)
    for seed in (2, 7, 11):
        core = generate_core(seed, n_vars=2, depth=4)
        bodies = [core.body]
        try:
            bodies.append(tgt.desugar_expr(transcribe_with_poly(core.body, tgt, ty)))
        except Untranscribable:
            pass
        points = sample_core(core, config).train
        for body in bodies:
            for sub in set(_subexpressions(body)):
                for point in points:
                    _check_expression(sub, point, formats=(ty,))


# --- no process-global state ----------------------------------------------------------


def test_threads_share_no_precision_state():
    """Two unlocked threads of precision-heavy evaluations, while a third
    flips ``mp.prec`` and thread switches come every microsecond, give
    exactly the serial results."""
    jobs = [
        (parse_expr("(- x (sin x))"), [1e-5 * (k + 1) for k in range(200)]),
        (parse_expr("(log1p (- (exp x) 1))"), [1e-9 * (k + 1) for k in range(200)]),
    ]

    def run(expr, xs):
        ev = RivalEvaluator()
        return [float.hex(ev.eval(expr, {"x": x})) for x in xs]

    serial = [run(expr, xs) for expr, xs in jobs]
    results = [None, None]
    stop = threading.Event()

    def flipper():
        saved = mp.prec
        try:
            while not stop.is_set():
                for prec in (8, 4000):
                    mp.prec = prec
        finally:
            mp.prec = saved

    def worker(i):
        results[i] = [run(*jobs[i]) for _ in range(3)]

    flip = threading.Thread(target=flipper)
    workers = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        flip.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in workers)
    finally:
        stop.set()
        flip.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not flip.is_alive()
    for i in range(2):
        assert results[i] == [serial[i]] * 3
