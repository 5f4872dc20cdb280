"""Shared building blocks for the built-in target descriptions.

Latency numbers are representative per-operation times (ns for language
targets, cycles for hardware targets — only *relative* magnitudes matter to
Chassis) chosen to reflect each environment's character as described in the
paper's section 6.1: hardware targets have stark fast/slow divisions,
interpreted languages have flat, overhead-dominated costs, and libraries
offer cheap approximate variants of expensive functions.
"""

from __future__ import annotations

from typing import Callable

from ...fpeval import impls
from ...ir.types import F32, F64
from ..operator import OperatorDef, opdef

#: real-operator name -> (operator base name, desugaring source)
_BASE_APPROX = {
    "+": ("add", "(+ x y)"),
    "-": ("sub", "(- x y)"),
    "*": ("mul", "(* x y)"),
    "/": ("div", "(/ x y)"),
    "neg": ("neg", "(neg x)"),
    "fabs": ("fabs", "(fabs x)"),
    "sqrt": ("sqrt", "(sqrt x)"),
    "cbrt": ("cbrt", "(cbrt x)"),
    "fmin": ("fmin", "(fmin x y)"),
    "fmax": ("fmax", "(fmax x y)"),
    "copysign": ("copysign", "(copysign x y)"),
    "pow": ("pow", "(pow x y)"),
    "hypot": ("hypot", "(hypot x y)"),
    "exp": ("exp", "(exp x)"),
    "exp2": ("exp2", "(exp2 x)"),
    "expm1": ("expm1", "(expm1 x)"),
    "log": ("log", "(log x)"),
    "log2": ("log2", "(log2 x)"),
    "log10": ("log10", "(log10 x)"),
    "log1p": ("log1p", "(log1p x)"),
    "sin": ("sin", "(sin x)"),
    "cos": ("cos", "(cos x)"),
    "tan": ("tan", "(tan x)"),
    "asin": ("asin", "(asin x)"),
    "acos": ("acos", "(acos x)"),
    "atan": ("atan", "(atan x)"),
    "atan2": ("atan2", "(atan2 x y)"),
    "sinh": ("sinh", "(sinh x)"),
    "cosh": ("cosh", "(cosh x)"),
    "tanh": ("tanh", "(tanh x)"),
    "asinh": ("asinh", "(asinh x)"),
    "acosh": ("acosh", "(acosh x)"),
    "atanh": ("atanh", "(atanh x)"),
    "floor": ("floor", "(floor x)"),
    "ceil": ("ceil", "(ceil x)"),
    "round": ("round", "(round x)"),
    "trunc": ("trunc", "(trunc x)"),
    "fmod": ("fmod", "(fmod x y)"),
}

def _impl64(real_name: str) -> Callable[..., float] | None:
    base = _BASE_APPROX[real_name][0]
    return getattr(impls, f"{base}64", None)


def _arity(approx_src: str) -> int:
    from ...ir.parser import parse_expr

    return len(parse_expr(approx_src).free_vars())


def direct64(real_name: str, latency: float, linked: bool = False) -> OperatorDef:
    """A binary64 operator directly implementing one real operator."""
    base, approx_src = _BASE_APPROX[real_name]
    arity = _arity(approx_src)
    return opdef(
        f"{base}.f64",
        (F64,) * arity,
        F64,
        approx_src,
        latency,
        impl=_impl64(real_name),
        linked=linked,
    )


def direct32(real_name: str, latency: float, linked: bool = False) -> OperatorDef:
    """A binary32 operator directly implementing one real operator."""
    base, approx_src = _BASE_APPROX[real_name]
    arity = _arity(approx_src)
    impl64 = _impl64(real_name)
    impl32 = impls.f32_of(impl64) if impl64 is not None else None
    if base in ("neg", "fabs"):
        impl32 = impl64  # exact: no rounding needed
    return opdef(
        f"{base}.f32",
        (F32,) * arity,
        F32,
        approx_src,
        latency,
        impl=impl32,
        linked=linked,
    )


def direct_fmt(
    fmt, real_name: str, latency: float, linked: bool = False
) -> OperatorDef:
    """An operator in an arbitrary registered format (``fmt`` is a
    :class:`~repro.formats.FloatFormat`): the generalization of
    :func:`direct32` — compute the binary64 implementation wide, round the
    result into the format once.  Operator names carry the format's suffix
    (``add.bf16``), argument and return types its registered name."""
    base, approx_src = _BASE_APPROX[real_name]
    arity = _arity(approx_src)
    impl64 = _impl64(real_name)
    impl = impls.format_of(impl64, fmt) if impl64 is not None else None
    if base in ("neg", "fabs"):
        impl = impl64  # exact in every format: no rounding needed
    return opdef(
        f"{base}.{fmt.suffix}",
        (fmt.name,) * arity,
        fmt.name,
        approx_src,
        latency,
        impl=impl,
        linked=linked,
    )


def fma_ops_fmt(fmt, latency: float) -> list[OperatorDef]:
    """The fused multiply-add family in an arbitrary registered format."""
    specs = (
        ("fma", "(+ (* x y) z)", impls.fma64),
        ("fms", "(- (* x y) z)", impls.fms64),
        ("fnma", "(+ (neg (* x y)) z)", impls.fnma64),
        ("fnms", "(- (neg (* x y)) z)", impls.fnms64),
    )
    ty = fmt.name
    return [
        opdef(
            f"{base}.{fmt.suffix}",
            (ty, ty, ty),
            ty,
            approx,
            latency,
            impls.format_of(impl64, fmt),
            linked=True,
        )
        for base, approx, impl64 in specs
    ]


def fma_ops_f64(latency: float) -> list[OperatorDef]:
    """The fused multiply-add family at binary64."""
    return [
        opdef("fma.f64", (F64, F64, F64), F64, "(+ (* x y) z)", latency, impls.fma64),
        opdef("fms.f64", (F64, F64, F64), F64, "(- (* x y) z)", latency, impls.fms64),
        opdef("fnma.f64", (F64, F64, F64), F64, "(+ (neg (* x y)) z)", latency, impls.fnma64),
        opdef("fnms.f64", (F64, F64, F64), F64, "(- (neg (* x y)) z)", latency, impls.fnms64),
    ]


def fma_ops_f32(latency: float) -> list[OperatorDef]:
    """The fused multiply-add family at binary32."""
    return [
        opdef("fma.f32", (F32, F32, F32), F32, "(+ (* x y) z)", latency, impls.fma32),
        opdef("fms.f32", (F32, F32, F32), F32, "(- (* x y) z)", latency, impls.fms32),
        opdef("fnma.f32", (F32, F32, F32), F32, "(+ (neg (* x y)) z)", latency, impls.fnma32),
        opdef("fnms.f32", (F32, F32, F32), F32, "(- (neg (* x y)) z)", latency, impls.fnms32),
    ]


def cast_ops(latency: float = 2.0) -> list[OperatorDef]:
    """Format-conversion operators (trivial desugaring, paper section 4.1)."""
    from ...fpeval.impls import cast_to_f32, cast_to_f64
    from ...ir.expr import Var

    return [
        opdef("cast.f32", (F64,), F32, Var("x"), latency, cast_to_f32, linked=True),
        opdef("cast.f64", (F32,), F64, Var("x"), latency, cast_to_f64, linked=True),
    ]


def cast_ops_fmt(fmt, latency: float = 2.0) -> list[OperatorDef]:
    """Format-conversion operators between binary64 and an arbitrary
    registered format: the demotion rounds (``impls.cast_into``), the
    promotion is exact (narrow values are representable doubles)."""
    from ...fpeval.impls import cast_into, cast_to_f64
    from ...ir.expr import Var

    return [
        opdef(
            f"cast.{fmt.suffix}",
            (F64,),
            fmt.name,
            Var("x"),
            latency,
            cast_into(fmt),
            linked=True,
        ),
        opdef("cast.f64", (fmt.name,), F64, Var("x"), latency, cast_to_f64, linked=True),
    ]


#: Representative libm latencies (binary64, ns-scale for a C environment).
LIBM_LATENCIES = {
    "exp": 40.0,
    "exp2": 38.0,
    "expm1": 45.0,
    "log": 40.0,
    "log2": 42.0,
    "log10": 45.0,
    "log1p": 45.0,
    "sin": 45.0,
    "cos": 45.0,
    "tan": 55.0,
    "asin": 50.0,
    "acos": 50.0,
    "atan": 55.0,
    "atan2": 70.0,
    "sinh": 55.0,
    "cosh": 55.0,
    "tanh": 55.0,
    "asinh": 60.0,
    "acosh": 60.0,
    "atanh": 60.0,
    "pow": 90.0,
    "hypot": 55.0,
    "cbrt": 65.0,
    "fmod": 30.0,
    "floor": 6.0,
    "ceil": 6.0,
    "round": 8.0,
    "trunc": 6.0,
    "copysign": 2.0,
}


def libm_ops_f64(scale: float = 1.0, only: tuple[str, ...] | None = None) -> list[OperatorDef]:
    """Math-library operators at binary64 with scaled latencies."""
    names = only if only is not None else tuple(LIBM_LATENCIES)
    return [direct64(name, LIBM_LATENCIES[name] * scale) for name in names]
