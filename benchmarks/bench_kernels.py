"""Micro-benchmarks of the compiler's substrates.

These time the hot kernels the paper's run-time numbers depend on: equality
saturation, typed extraction, the correctly-rounded oracle, sampling, and
whole-program compilation.  Useful for tracking performance regressions of
the reproduction itself.
"""

from repro.accuracy import SampleConfig, sample_core
from repro.benchsuite import core_named
from repro.core import CompileConfig, compile_core
from repro.core.isel import instruction_select
from repro.egraph import EGraph, RunnerLimits, TypedExtractor, run_rules
from repro.cost import TargetCostModel
from repro.ir import F64, parse_expr
from repro.rival import evaluate
from repro.rules import all_rules
from repro.targets import get_target


def test_kernel_saturation(benchmark):
    """Full rule database over a classic cancellation expression."""
    expr = parse_expr("(- (sqrt (+ x 1)) (sqrt x))")
    limits = RunnerLimits(max_iterations=3, max_nodes=1500)

    def run():
        g = EGraph()
        g.add_expr(expr)
        run_rules(g, list(all_rules()), limits)
        return g.num_nodes

    nodes = benchmark(run)
    assert nodes > 100


def test_kernel_typed_extraction(benchmark):
    """Typed extraction over a saturated mixed real/float e-graph."""
    c99 = get_target("c99")
    expr = parse_expr("(- (sqrt (+ x 1)) (sqrt x))")
    g = EGraph()
    root = g.add_expr(expr)
    from repro.core.isel import _rules_for

    run_rules(g, _rules_for(c99), RunnerLimits(max_iterations=3, max_nodes=1500))
    model = TargetCostModel(c99)

    def extract():
        return TypedExtractor(g, model, {"x": F64}).extract(root, F64)

    out = benchmark(extract)
    assert model.supports_program(out)


def test_kernel_rival_eval(benchmark):
    """Correctly-rounded oracle evaluation at one point."""
    expr = parse_expr("(- (sqrt (+ x 1)) (sqrt x))")
    value, _rung = benchmark(lambda: evaluate(expr, {"x": 1e16}))
    assert value > 0


def test_kernel_sampling(benchmark):
    """Sampling valid points (precondition + oracle filtering)."""
    core = core_named("acoth")
    samples = benchmark(
        lambda: sample_core(core, SampleConfig(n_train=16, n_test=16))
    )
    assert len(samples.train) == 16


def test_kernel_full_compile(benchmark):
    """One full Chassis compilation (the paper reports ~1 min/benchmark on
    its Racket/Rust implementation; our scaled settings run in seconds)."""
    core = core_named("sqrt-sub")
    c99 = get_target("c99")
    config = CompileConfig(iterations=1, localize_points=6, max_variants=15)

    result = benchmark.pedantic(
        compile_core,
        args=(core, c99, config, SampleConfig(n_train=16, n_test=16)),
        rounds=1,
        iterations=1,
    )
    assert len(result.frontier) >= 1


def test_kernel_instruction_selection(benchmark):
    """One instruction-selection-modulo-equivalence pass on fdlibm."""
    fdlibm = get_target("fdlibm")
    prog = parse_expr("(* 1/2 (log (/ (+ 1 x) (- 1 x))))")
    variants = benchmark(lambda: instruction_select(prog, fdlibm, ty=F64))
    assert any("log1pmd" in str(v) for v in variants)
