"""The improvement loop's point-value memos.

Local error reads exact values from the batched oracle, one batch per
distinct (desugared subexpression, format) for the whole loop; candidate
scoring evaluates programs column-wise from subtree values the loop
already holds.  Both must give exactly what the per-point paths give.
"""

import math
import random
import struct

import pytest

from repro.accuracy import SampleConfig, sample_core
from repro.accuracy.localerror import ExactMemo, local_errors
from repro.accuracy.scoring import pointwise_errors
from repro.accuracy.ulp import bits_of_error
from repro.benchsuite.generator import generate_core
from repro.core import CompileConfig
from repro.core import loop as loop_module
from repro.core.loop import ImprovementLoop
from repro.core.transcribe import transcribe_with_poly
from repro.fpeval.machine import (
    FAILED,
    POINT_FAILURES,
    ColumnMemo,
    UnsupportedOperator,
    compile_expr,
)
from repro.ir import parse_expr, parse_fpcore
from repro.ir.expr import App
from repro.rival.backends import make_backend
from repro.rival.eval import DomainError, PrecisionExhausted, evaluate
from repro.targets import get_target


def scalar_local_errors(program, target, points):
    """The per-node, per-point, per-argument reference: one scalar oracle
    call for every argument and every node at every point."""
    impls = target.impl_registry()
    results = {}
    for path, node in program.subexprs():
        if not isinstance(node, App):
            continue
        spec = impls.get(node.op)
        if spec is None:
            continue
        op = target.operator(node.op)
        total, counted = 0.0, 0
        for point in points:
            try:
                exact_args = [
                    evaluate(target.desugar_expr(arg), point, arg_ty)[0]
                    for arg, arg_ty in zip(node.args, spec.arg_types)
                ]
                exact_out, _rung = evaluate(
                    target.desugar_expr(node), point, op.ret_type
                )
            except (DomainError, PrecisionExhausted, KeyError):
                continue
            try:
                approx_out = spec.impl(*exact_args)
            except (OverflowError, ValueError, ZeroDivisionError):
                approx_out = math.nan
            total += bits_of_error(approx_out, exact_out, op.ret_type)
            counted += 1
        if counted:
            results[path] = total / counted
    return results


def _points(variables, seed, count=8):
    """Points straddling the generator's domain (0.001, 100): negative
    and zero inputs give log/sqrt domain errors."""
    rng = random.Random(seed)
    picks = [-2.5, 0.0, 1e-3, 0.5, 7.0, 99.0, -0.0, 1e300]
    return [
        {name: rng.choice(picks) if index < 3 else rng.uniform(-50, 100)
         for name in variables}
        for index in range(count)
    ]


CASES = [
    ("c99", "binary64"), ("c99", "binary32"), ("fdlibm", "binary64"),
    ("avx", "binary64"), ("avx", "binary32"), ("arith", "binary64"),
    ("fp16", "fp16"), ("bf16", "bf16"),
]


class CountingOracle:
    """Records every batch it answers, then defers to a real backend."""

    def __init__(self):
        self.backend = make_backend()
        self.calls = []

    def eval_batch(self, expr, points, ty):
        self.calls.append((expr, ty, len(points)))
        return self.backend.eval_batch(expr, points, ty)


class TestBatchedLocalError:
    @pytest.mark.parametrize("target_name,ty", CASES)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_matches_the_scalar_reference(self, target_name, ty, seed):
        target = get_target(target_name)
        core = generate_core(seed, n_vars=2, depth=3)
        program = transcribe_with_poly(core.body, target, ty)
        points = _points(core.arguments, seed)
        expected = scalar_local_errors(program, target, points)
        assert expected  # the program has nodes defined somewhere
        assert local_errors(program, target, points, ty) == expected

    def test_domain_error_points_are_skipped(self, c99):
        program = parse_expr(
            "(sqrt.f64 (sub.f64 x 1))", known_ops=set(c99.operators)
        )
        points = [{"x": 0.5}, {"x": 5.0}, {"x": -3.0}, {"x": 10.0}]
        errors = local_errors(program, c99, points)
        assert errors == scalar_local_errors(program, c99, points)
        # undefined everywhere: the node has no entry at all
        assert local_errors(program, c99, [{"x": 0.5}, {"x": -3.0}]) == {
            (0,): 0.0
        }

    def test_one_real_expression_at_two_formats(self, c99):
        """(/ 1 x) is oracled at binary32 for the cast and at binary64 for
        the subtraction: the memo keys values by format too."""
        program = parse_expr(
            "(sub.f64 (cast.f64 (div.f32 1 (cast.f32 x))) (div.f64 1 x))",
            known_ops=set(c99.operators),
        )
        points = [{"x": 3.0}, {"x": 7.0}, {"x": 0.1}]
        assert local_errors(program, c99, points) == scalar_local_errors(
            program, c99, points
        )
        oracle = CountingOracle()
        memo = ExactMemo(c99, points, oracle)
        third = parse_expr("(div.f64 1 x)", known_ops=set(c99.operators))
        assert memo.exact(third, "binary64") != memo.exact(third, "binary32")
        memo.exact(third, "binary64")
        assert len(oracle.calls) == 2

    def test_memo_must_match_the_points(self, c99):
        program = parse_expr("(sqrt.f64 x)", known_ops=set(c99.operators))
        points = [{"x": 2.0}]
        memo = ExactMemo(c99, points)
        with pytest.raises(ValueError):
            local_errors(program, c99, [{"x": 2.0}], memo=memo)


@pytest.fixture(scope="module")
def acoth_samples():
    core = parse_fpcore(
        "(FPCore acoth (x) :pre (and (< 0.001 (fabs x)) (< (fabs x) 0.999))"
        " (* 1/2 (log (/ (+ 1 x) (- 1 x)))))"
    )
    return core, sample_core(core, SampleConfig(n_train=24, n_test=8))


class TestOneBatchPerSubexpression:
    def test_each_subexpression_and_format_is_oracled_once(
        self, fdlibm, acoth_samples
    ):
        core, samples = acoth_samples
        oracle = CountingOracle()
        loop = ImprovementLoop(
            core, fdlibm, samples,
            CompileConfig(iterations=2, localize_points=10, max_variants=8),
            oracle=oracle,
        )
        loop.run()
        keys = [(expr, ty) for expr, ty, _n in oracle.calls]
        assert keys
        assert len(keys) == len(set(keys))
        assert all(n == 10 for _expr, _ty, n in oracle.calls)
        # re-localizing a program the loop has seen asks nothing new
        calls = len(oracle.calls)
        program = transcribe_with_poly(core.body, fdlibm, core.precision)
        loop.localize(program)
        loop.localize(program)
        assert len(oracle.calls) == calls


def _bits(value):
    return struct.pack("<d", value)


def _compiled(program, ops, points, ty):
    """compile_expr's values at each point, NaN where a point raised."""
    evaluator = compile_expr(program, ops, ty)
    out = []
    for point in points:
        try:
            out.append(evaluator(point))
        except POINT_FAILURES:
            out.append(math.nan)
    return out


class _RawSpec:
    """An operator spec whose impl raises on bad inputs (the built-in
    targets' impls are total: NaN on domain errors, inf on overflow)."""

    def __init__(self, impl, arity):
        self.impl = impl
        self.arg_types = ("binary64",) * arity
        self.ret_type = "binary64"


def _fmax(a, b):
    """NaN-absorbing maximum: a failed point must not reach it as NaN."""
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return max(a, b)


RAISING = {
    "exp.f64": _RawSpec(math.exp, 1),  # OverflowError above ~709.8
    "log.f64": _RawSpec(math.log, 1),  # ValueError at 0 and below
    "sqrt.f64": _RawSpec(math.sqrt, 1),
    "div.f64": _RawSpec(lambda a, b: a / b, 2),  # ZeroDivisionError
    "add.f64": _RawSpec(lambda a, b: a + b, 2),
    "sub.f64": _RawSpec(lambda a, b: a - b, 2),
    "mul.f64": _RawSpec(lambda a, b: a * b, 2),
    "fmax.f64": _RawSpec(_fmax, 2),
}


class TestColumnMemo:
    POINTS = [
        {"x": x, "y": y}
        for x, y in [(0.5, 2.0), (-1.0, 3.0), (800.0, 1.0), (0.0, 0.0),
                     (1e308, -1e308), (-0.0, 5.0), (2.5, -7.0)]
    ]
    PROGRAMS = [
        "(exp.f64 x)",  # overflow at 800
        "(div.f64 y x)",
        "(sqrt.f64 (sub.f64 x y))",  # negative arguments
        "(log.f64 x)",  # ValueError at 0
        "(add.f64 (exp.f64 x) y)",
        "(if (< x 1) (exp.f64 x) (div.f64 1 x))",
        "(if (< x 1) 2 (exp.f64 x))",  # overflow only in the untaken branch
        "(if (< (exp.f64 x) 10) x y)",  # overflow inside the condition
        "(if (and (< x 0) (< (exp.f64 y) 5)) x y)",
        "(if (and (< 1 x) (< (log.f64 x) 0)) x y)",  # right side short-cut
        "(if (or (< x 1) (< (log.f64 x) 0)) x y)",  # right side short-cut
        "(if (or (< 1 x) (< (log.f64 x) 0)) x PI)",
        "(if (not (== x y)) (mul.f64 x y) E)",
        "(if (not (< (div.f64 1 x) 0)) x y)",
        "(if TRUE x (exp.f64 x))",
        "(fmax.f64 (exp.f64 x) y)",  # a failed point is not a NaN
        "(fmax.f64 (add.f64 (exp.f64 x) 1) y)",  # nor after one more node
        "(fmax.f64 (div.f64 x y) (log.f64 y))",
    ]

    @pytest.mark.parametrize("source", PROGRAMS)
    @pytest.mark.parametrize("raising", [False, True])
    def test_columns_match_compiled_evaluation(self, c99, source, raising):
        program = parse_expr(source, known_ops=set(c99.operators))
        ops = RAISING if raising else c99.impl_registry()
        memo = ColumnMemo(ops, self.POINTS)
        expected = _compiled(program, ops, self.POINTS, "binary64")
        got = [
            math.nan if value is FAILED else value
            for value in memo.column(program, "binary64")
        ]
        assert list(map(_bits, got)) == list(map(_bits, expected))

    def test_literals_round_into_the_expected_format(self, c99):
        program = parse_expr("(add.f32 x 1/3)", known_ops=set(c99.operators))
        ops = c99.impl_registry()
        points = [{"x": 0.25}, {"x": 3.0}]
        memo = ColumnMemo(ops, points)
        assert memo.column(program, "binary32") == _compiled(
            program, ops, points, "binary32"
        )

    def test_unsupported_operator_raises_even_in_an_untaken_branch(self, c99):
        program = parse_expr(
            "(if (< x 1e9) x (frob.f64 x))",
            known_ops={*c99.operators, "frob.f64"},
        )
        memo = ColumnMemo(c99.impl_registry(), self.POINTS)
        with pytest.raises(UnsupportedOperator):
            memo.column(program, "binary64")


def _reference_errors(program, target, points, exact, ty):
    """Per-point scoring through compile_expr, the reference the memo
    must match."""
    try:
        approx = _compiled(program, target.impl_registry(), points, ty)
    except KeyError:
        return KeyError
    return [bits_of_error(a, e, ty) for a, e in zip(approx, exact)]


def _checking_scorer(checked):
    """A stand-in for the loop's ``pointwise_errors`` that checks each
    memoized call against a memo-less one and the compiled reference."""

    def score(program, target, points, exact, ty, memo=None):
        results = []
        for use in (memo, None):
            try:
                results.append(pointwise_errors(
                    program, target, points, exact, ty, memo=use
                ))
            except KeyError:
                results.append(KeyError)
        got, fresh = results
        assert got == fresh == _reference_errors(
            program, target, points, exact, ty
        ), program
        checked.append(program)
        if got is KeyError:
            raise KeyError(program)
        return got

    return score


class TestMemoizedScoring:
    def test_every_candidate_scores_as_without_the_memo(
        self, c99, monkeypatch
    ):
        core = parse_fpcore(
            "(FPCore q (x) :pre (< 600 x 800) (/ (exp x) (+ 1 (exp x))))"
        )
        samples = sample_core(core, SampleConfig(n_train=32, n_test=8))
        # overflow points: exp(x) overflows binary64 above ~709.8
        assert any(point["x"] > 709.8 for point in samples.train)
        checked = []
        monkeypatch.setattr(
            loop_module, "pointwise_errors", _checking_scorer(checked)
        )
        loop = ImprovementLoop(
            core, c99, samples,
            CompileConfig(iterations=2, localize_points=8, max_variants=10),
        )
        loop.run()
        assert len(checked) > 20
        # an unsupported operator still scores the worst case
        bad = parse_expr("(frob.f64 x)", known_ops={"frob.f64"})
        assert loop.score(bad, "bad").error == 64.0
        assert checked[-1] == bad
        # a branch over earlier candidates
        branched = parse_expr(
            "(if (< x 1) (expm1.f64 x) (sub.f64 (exp.f64 x) 1))",
            known_ops=set(c99.operators),
        )
        loop.score(branched, "regimes")
        assert checked[-1] == branched

    def test_regime_programs_score_as_without_the_memo(self, c99, monkeypatch):
        from repro.benchsuite import core_named

        core = core_named("deg-dist")
        samples = sample_core(core, SampleConfig(n_train=32, n_test=8))
        checked = []
        monkeypatch.setattr(
            loop_module, "pointwise_errors", _checking_scorer(checked)
        )
        loop = ImprovementLoop(
            core, c99, samples,
            CompileConfig(iterations=1, localize_points=8, max_variants=10),
        )
        frontier = loop.run()
        regimes = [c for c in frontier if c.origin == "regimes"]
        assert regimes and "if" in regimes[0].program.operators()
        assert regimes[0].program in checked

    def test_memo_must_match_the_points(self, c99):
        program = parse_expr("(sqrt.f64 x)", known_ops=set(c99.operators))
        memo = ColumnMemo(c99.impl_registry(), [{"x": 2.0}])
        with pytest.raises(ValueError):
            pointwise_errors(program, c99, [{"x": 2.0}], [1.0], memo=memo)
