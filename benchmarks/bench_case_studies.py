"""Section 6.4 case studies: quadratic on AVX, ellipse on Julia, acoth on fdlibm.

For each case study this regenerates Chassis' target-specific programs and
checks the paper's qualitative claim: the target-specific operator (fma
family / degree-trig helpers / log1pmd) appears in the output frontier.
"""

from conftest import BENCH_POINTS, write_result

from repro.accuracy import SampleConfig
from repro.benchsuite import core_named
from repro.core import CompileConfig, compile_core
from repro.ir import expr_to_sexpr
from repro.targets import get_target

CONFIG = CompileConfig(iterations=2, localize_points=8, max_variants=25)
SAMPLES = SampleConfig(n_train=BENCH_POINTS, n_test=BENCH_POINTS)


def _render(result) -> str:
    lines = [
        f"  input: cost={result.input_candidate.cost:8.1f} "
        f"err={result.input_candidate.error:6.2f}  "
        f"{expr_to_sexpr(result.input_candidate.program)}"
    ]
    for c in result.frontier:
        lines.append(
            f"  out:   cost={c.cost:8.1f} err={c.error:6.2f}  "
            f"{expr_to_sexpr(c.program)}"
        )
    return "\n".join(lines)


def test_case_quadratic_avx(benchmark):
    core = core_named("quadratic-mod")
    avx = get_target("avx")
    result = benchmark.pedantic(
        compile_core, args=(core, avx, CONFIG, SAMPLES), rounds=1, iterations=1
    )
    text = "Case study 1 — modified quadratic on AVX\n" + _render(result)
    write_result("case_quadratic_avx", text)
    programs = " ".join(str(c.program) for c in result.frontier)
    assert any(op in programs for op in ("fma", "fms", "fnma", "fnms"))


def test_case_ellipse_julia(benchmark):
    core = core_named("ellipse-angle")
    julia = get_target("julia")
    result = benchmark.pedantic(
        compile_core, args=(core, julia, CONFIG, SAMPLES), rounds=1, iterations=1
    )
    text = "Case study 2 — ellipse angle on Julia\n" + _render(result)
    write_result("case_ellipse_julia", text)
    programs = " ".join(str(c.program) for c in result.frontier)
    assert any(h in programs for h in ("sind", "cosd", "deg2rad", "abs2"))


def test_case_acoth_fdlibm(benchmark):
    core = core_named("acoth")
    fdlibm = get_target("fdlibm")
    result = benchmark.pedantic(
        compile_core, args=(core, fdlibm, CONFIG, SAMPLES), rounds=1, iterations=1
    )
    text = "Case study 3 — inverse hyperbolic cotangent on fdlibm\n" + _render(result)
    write_result("case_acoth_fdlibm", text)
    assert result.frontier.best_error().error <= result.input_candidate.error
