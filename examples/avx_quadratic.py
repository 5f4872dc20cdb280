"""Case study 1 (paper section 6.4): the modified quadratic formula on AVX.

Run:  python examples/avx_quadratic.py

AVX has fused multiply-add variants (fma/fms/fnma/fnms), *no* negation
instruction, a fast approximate reciprocal at binary32, and masked (vector)
conditionals.  Chassis folds the quadratic's multiply-subtract chains into
fma variants, exactly as the paper shows.
"""

from repro import CompileConfig, SampleConfig, compile_core, get_target, parse_fpcore
from repro.core.isel import instruction_select
from repro.ir import F32, expr_to_sexpr, parse_expr

CORE = parse_fpcore(
    """
    (FPCore quadratic-mod (a b2 c)
      :name "modified quadratic formula"
      :pre (and (< 1e-3 a 1e3) (< -1e3 b2 1e3) (< -1e3 c 1e3))
      (/ (+ (- b2) (sqrt (- (* b2 b2) (* a c)))) a))
    """
)


def main() -> None:
    avx = get_target("avx")
    print("AVX facts Chassis knows from the target description:")
    print(f"  negation instruction: {'neg.f64' in avx.operators}")
    print(f"  rcp.f32 cost {avx.operator('rcp.f32').cost} vs "
          f"div.f32 cost {avx.operator('div.f32').cost}")
    print(f"  conditional style: {avx.if_style} (masked execution)")
    print()

    result = compile_core(
        CORE, avx, CompileConfig(iterations=2), SampleConfig(n_train=32, n_test=32)
    )
    print("Pareto frontier on AVX (note the fma/fnma fusions):")
    for candidate in result.frontier:
        print(f"  cost={candidate.cost:7.1f} err={candidate.error:6.2f}  "
              f"{expr_to_sexpr(candidate.program)}")
    print()

    # The paper's single-precision observation: with rcpss available,
    # divisions become multiply-by-reciprocal.
    print("Single-precision division on AVX — instruction-selection variants:")
    for variant in instruction_select(parse_expr("(/ x y)"), avx, ty=F32)[:5]:
        print(f"  {expr_to_sexpr(variant)}")


if __name__ == "__main__":
    main()
