"""Cross-check executed emitted code against the oracle and the machine.

A compiled program exists three times in this system: as an expression the
:mod:`repro.fpeval` machine evaluates (what every accuracy score is based
on), as emitted source text, and — with this subsystem — as an actually
*running* artifact.  :func:`validate_program` runs the third form over the
session's sampled points and reports two comparisons per point:

* **against the Rival oracle** — bits of error of the executed output
  versus the correctly-rounded exact value (the same metric as scoring),
  giving an *empirical* accuracy score;
* **against the machine** — ULP distance between the executed output and
  the machine's evaluation of the same program, localizing exactly which
  points (and how far) real execution diverges from the model.

Agreement is summarized as ``agreement_bits`` (|empirical − machine| mean
bits-of-error); mismatching points are reported individually (capped) so a
divergence can be traced to its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..accuracy.sampler import SampleSet
from ..accuracy.ulp import bits_of_error, ulps_between
from ..deadline import check_deadline
from ..formats import get_format
from ..fpeval.machine import compile_expr
from ..ir.expr import Expr
from ..ir.fpcore import FPCore
from ..targets.target import Target
from .builder import BuildCache
from .executable import ExecutableProgram, executable_for, json_float

#: ULP distance (executed vs machine) above which a point is a mismatch.
DEFAULT_MISMATCH_ULPS = 1

#: How many individual mismatching points a report carries.
DEFAULT_MAX_MISMATCHES = 8


@dataclass
class PointMismatch:
    """One sample point where executed code and the machine disagree."""

    index: int
    point: dict
    exact: float
    executed: float
    machine: float
    ulps: int
    executed_bits: float
    machine_bits: float

    def as_dict(self) -> dict:
        # Executed/machine values are exactly where NaN/inf show up;
        # json_float keeps the report strict-JSON (sample inputs and
        # exact values are finite by the sampler's construction).
        return {
            "index": self.index,
            "point": self.point,
            "exact": self.exact,
            "executed": json_float(self.executed),
            "machine": json_float(self.machine),
            "ulps": self.ulps,
            "executed_bits": self.executed_bits,
            "machine_bits": self.machine_bits,
        }


@dataclass
class ValidationReport:
    """Empirical-vs-oracle and empirical-vs-machine agreement summary."""

    benchmark: str
    target: str
    backend: str
    language: str
    fn_name: str
    n_points: int
    #: Mean bits of error of *executed* outputs against the oracle.
    executed_bits: float
    #: Mean bits of error of the machine's evaluation against the oracle
    #: (the score the compiler reported for this program).
    machine_bits: float
    #: |executed_bits - machine_bits|: how far the empirical score sits
    #: from the machine-evaluated one.
    agreement_bits: float
    #: Largest per-point ULP distance between executed and machine values.
    max_ulps: int
    #: Total number of points past the mismatch threshold (the carried
    #: list is capped; this is the real count).
    mismatch_count: int
    mismatches: list[PointMismatch] = field(default_factory=list)
    #: Degradation note from the backend ("no C compiler on PATH; ...").
    note: str = ""

    @property
    def ok(self) -> bool:
        """Whether the empirical score confirms the machine-evaluated one
        (within the half-bit the acceptance protocol allows)."""
        return self.agreement_bits <= 0.5

    def as_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "target": self.target,
            "backend": self.backend,
            "language": self.language,
            "fn_name": self.fn_name,
            "n_points": self.n_points,
            "executed_bits": self.executed_bits,
            "machine_bits": self.machine_bits,
            "agreement_bits": self.agreement_bits,
            "max_ulps": self.max_ulps,
            "mismatch_count": self.mismatch_count,
            "mismatches": [m.as_dict() for m in self.mismatches],
            "ok": self.ok,
            "note": self.note,
        }


def validate_executable(
    executable: ExecutableProgram,
    program: Expr,
    core: FPCore,
    target: Target,
    samples: SampleSet,
    *,
    max_mismatches: int = DEFAULT_MAX_MISMATCHES,
    mismatch_ulps: int = DEFAULT_MISMATCH_ULPS,
) -> ValidationReport:
    """Validate an already-built executable (see :func:`validate_program`)."""
    precision = core.precision
    machine = compile_expr(program, target.impl_registry(), precision)
    fmt = get_format(precision)
    points, exacts = samples.test, samples.test_exact
    if not points:
        points, exacts = samples.train, samples.train_exact

    executed_total = machine_total = 0.0
    max_ulps = 0
    mismatch_count = 0
    mismatches: list[PointMismatch] = []
    for index, (point, exact) in enumerate(zip(points, exacts)):
        check_deadline()  # cooperative deadline: bounded on any thread
        executed = executable.run_point(point)
        try:
            modeled = machine(point)
        except (ArithmeticError, ValueError, KeyError):
            modeled = math.nan
        executed_bits = bits_of_error(executed, exact, fmt)
        machine_bits = bits_of_error(modeled, exact, fmt)
        executed_total += executed_bits
        machine_total += machine_bits
        ulps = ulps_between(executed, modeled, fmt)
        max_ulps = max(max_ulps, ulps)
        if ulps > mismatch_ulps:
            mismatch_count += 1
            if len(mismatches) < max_mismatches:
                mismatches.append(
                    PointMismatch(
                        index=index,
                        point=dict(point),
                        exact=exact,
                        executed=executed,
                        machine=modeled,
                        ulps=ulps,
                        executed_bits=executed_bits,
                        machine_bits=machine_bits,
                    )
                )

    n = max(1, len(points))
    executed_mean = executed_total / n
    machine_mean = machine_total / n
    return ValidationReport(
        benchmark=core.name or "<anonymous>",
        target=target.name,
        backend=executable.backend,
        language=executable.language,
        fn_name=executable.fn_name,
        n_points=len(points),
        executed_bits=executed_mean,
        machine_bits=machine_mean,
        agreement_bits=abs(executed_mean - machine_mean),
        max_ulps=max_ulps,
        mismatch_count=mismatch_count,
        mismatches=mismatches,
        note=executable.note,
    )


def validate_program(
    program: Expr,
    core: FPCore,
    target: Target,
    samples: SampleSet,
    *,
    backend: str = "auto",
    build_cache: BuildCache | None = None,
    compiler: str | None = None,
    max_mismatches: int = DEFAULT_MAX_MISMATCHES,
    mismatch_ulps: int = DEFAULT_MISMATCH_ULPS,
) -> ValidationReport:
    """Emit, build, run, and cross-check one program over sampled points.

    The empirical score (``executed_bits``) and the machine score
    (``machine_bits``) are both measured against the oracle's exact values
    carried in ``samples``; their difference plus per-point ULP
    localization make up the report.  ``backend="auto"`` degrades to the
    Python backend (and says so in ``note``) when C is unavailable.
    """
    executable = executable_for(
        program, core, target,
        backend=backend, build_cache=build_cache, compiler=compiler,
    )
    return validate_executable(
        executable, program, core, target, samples,
        max_mismatches=max_mismatches, mismatch_ulps=mismatch_ulps,
    )
