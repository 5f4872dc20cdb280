"""Sweeping one benchmark across all nine targets (paper figure 8 in miniature).

Run:  python examples/pareto_sweep.py

Compiles the logistic function for every built-in target and prints each
target's Pareto frontier plus its simulated speedup over the input program
— showing how the *same* real expression lowers differently everywhere:
fast_exp on vdt, flat costs on Python, masked branches on NumPy, series
polynomials on Arith (which has no exp at all).
"""

from repro import (
    CompileConfig,
    PerfSimulator,
    SampleConfig,
    compile_core,
    parse_fpcore,
)
from repro.accuracy import sample_core
from repro.core import Untranscribable
from repro.ir import expr_to_sexpr
from repro.targets import all_targets

CORE = parse_fpcore(
    """
    (FPCore logistic (x)
      :name "logistic function"
      :pre (< -80 x 80)
      (/ 1 (+ 1 (exp (- x)))))
    """
)


def main() -> None:
    samples = sample_core(CORE, SampleConfig(n_train=32, n_test=32))
    config = CompileConfig(iterations=2)

    for target in all_targets():
        try:
            result = compile_core(CORE, target, config, samples=samples)
        except Untranscribable:
            # Arith targets have no exp: Chassis needs series candidates for
            # the *whole* program, which start from a transcribable input.
            print(f"{target.name:10s}  input not expressible (no exp); skipped")
            continue
        simulator = PerfSimulator(target)
        input_time = simulator.run_time(
            result.input_candidate.program, samples.test, CORE.precision
        )
        print(f"{target.name:10s}  ({len(result.frontier)} outputs)")
        for candidate in result.frontier:
            time = simulator.run_time(candidate.program, samples.test, CORE.precision)
            print(
                f"   {input_time / time:5.2f}x err={candidate.error:6.2f}  "
                f"{expr_to_sexpr(candidate.program)[:72]}"
            )


if __name__ == "__main__":
    main()
