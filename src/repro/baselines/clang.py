"""The Clang baseline: a mini traditional compiler (paper section 6.2).

The paper compares Chassis' C target against Clang 14 at six optimization
levels, each with and without ``-ffast-math`` (12 configurations).  We
reproduce the *behavioral* distinction that matters:

* precise configurations apply only semantics-preserving optimizations —
  constant folding of exact arithmetic, common-subexpression elimination
  (modeled by costing the program as a DAG), and dead-code trimming — so
  they can never repair the input's numerical error ("semantics
  preservation merely means bug preservation");
* ``-ffast-math`` treats float arithmetic as real arithmetic: it runs a
  cost-only e-graph minimization over the full identity database with *no
  accuracy feedback*, exactly the unrestricted-rewriting regime the paper
  (and [7]) warns about.

Optimization levels scale a backend-quality factor (register allocation,
scheduling) applied to simulated run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..egraph.egraph import EGraph
from ..egraph.extract import ExtractionError
from ..egraph.runner import RunnerLimits, run_rules
from ..egraph.typed_extract import TypedExtractor
from ..cost.model import TargetCostModel
from ..ir.expr import App, Const, Expr, Num, Var
from ..ir.fpcore import FPCore
from ..targets.target import Target
from ..core.transcribe import transcribe

#: Backend-quality multiplier per optimization level, relative to -O2.
LEVEL_FACTORS = {
    "-O0": 1.65,  # no register allocation: loads/stores everywhere
    "-O1": 1.12,
    "-O2": 1.0,
    "-O3": 0.97,
    "-Os": 1.04,
    "-Oz": 1.10,
}

#: The twelve configurations of the paper's figure 7.
CONFIGS = tuple(
    (level, fast_math) for level in LEVEL_FACTORS for fast_math in (False, True)
)


@dataclass(frozen=True)
class ClangOutput:
    """One compiled configuration of one benchmark."""

    level: str
    fast_math: bool
    program: Expr
    #: Level factor to apply to simulated run time.
    time_factor: float

    @property
    def config_name(self) -> str:
        return self.level + (" -ffast-math" if self.fast_math else "")


_FOLDABLE = {"+", "-", "*", "/", "neg"}
_BASE_FOLDABLE = {"add", "sub", "mul", "div", "neg"}


def _fold_constants(expr: Expr) -> Expr:
    """Exact constant folding on the foldable arithmetic subset."""
    if not isinstance(expr, App):
        return expr
    args = tuple(_fold_constants(a) for a in expr.args)
    base = expr.op.split(".")[0]
    if base in _BASE_FOLDABLE and all(isinstance(a, Num) for a in args):
        values = [a.value for a in args]
        try:
            if base == "add":
                return Num(values[0] + values[1])
            if base == "sub":
                return Num(values[0] - values[1])
            if base == "mul":
                # Folding a product is exact over rationals; the rounded
                # result matches because the inputs were representable.
                return Num(values[0] * values[1])
            if base == "div" and values[1] != 0:
                folded = values[0] / values[1]
                if float(folded) == float(values[0]) / float(values[1]):
                    return Num(folded)  # only fold when rounding agrees
            if base == "neg":
                return Num(-values[0])
        except (ZeroDivisionError, OverflowError):
            pass
    return App(expr.op, args)


def _identity_clean(expr: Expr) -> Expr:
    """IEEE-safe identity simplifications (x*1, x/1): allowed precisely."""
    if not isinstance(expr, App):
        return expr
    args = tuple(_identity_clean(a) for a in expr.args)
    base = expr.op.split(".")[0]
    one = Fraction(1)
    if base == "mul":
        if isinstance(args[0], Num) and args[0].value == one:
            return args[1]
        if isinstance(args[1], Num) and args[1].value == one:
            return args[0]
    if base == "div" and isinstance(args[1], Num) and args[1].value == one:
        return args[0]
    return App(expr.op, args)


def _dag_cost(expr: Expr, model: TargetCostModel) -> float:
    """Program cost with common subexpressions counted once (models CSE)."""
    seen: set[Expr] = set()

    def walk(node: Expr) -> float:
        if node in seen:
            return 0.0
        seen.add(node)
        if isinstance(node, Var):
            return model.target.variable_cost
        if isinstance(node, (Num, Const)):
            return min(model.target.literal_costs.values())
        assert isinstance(node, App)
        own = 0.0
        if node.op == "if":
            return (
                walk(node.args[0]) + walk(node.args[1]) + walk(node.args[2])
                + model.target.if_cost
            )
        opdef = model.target.operators.get(node.op)
        own = opdef.cost if opdef is not None else model.target.if_cost
        return own + sum(walk(a) for a in node.args)

    return walk(expr)


_FASTMATH_LIMITS = RunnerLimits(
    max_iterations=4, max_nodes=2000, max_matches_per_rule=200
)


def _fast_math_minimize(program: Expr, target: Target, ty: str, var_types) -> Expr:
    """Unrestricted real-identity minimization: fast-math's essence.

    Cost-only extraction with no accuracy feedback — the result is fast and
    possibly very wrong, which is the paper's point about fast-math.
    """
    from ..core.isel import _rules_for

    egraph = EGraph()
    root = egraph.add_expr(program)
    run_rules(egraph, _rules_for(target), _FASTMATH_LIMITS)
    extractor = TypedExtractor(egraph, TargetCostModel(target), var_types)
    try:
        return extractor.extract(root, ty)
    except ExtractionError:
        return program


def compile_clang(
    core: FPCore, target: Target, level: str = "-O2", fast_math: bool = False
) -> ClangOutput:
    """Compile the input program under one Clang configuration."""
    if level not in LEVEL_FACTORS:
        raise ValueError(f"unknown optimization level {level!r}")
    ty = core.precision
    program = transcribe(core.body, target, ty)
    var_types = dict(core.arg_types)

    if level != "-O0":
        program = _fold_constants(program)
        program = _identity_clean(program)
    if fast_math and level != "-O0":
        program = _fast_math_minimize(program, target, ty, var_types)

    return ClangOutput(
        level=level,
        fast_math=fast_math,
        program=program,
        time_factor=LEVEL_FACTORS[level],
    )


def compile_all_configs(core: FPCore, target: Target) -> list[ClangOutput]:
    """All 12 Clang configurations of the paper's figure 7.

    The fast-math minimization result is level-independent, so it is
    computed once and shared across -O1..-Oz (as a real compiler's
    canonicalized IR would be).
    """
    outputs: list[ClangOutput] = []
    fast_math_program = None
    for level, fast_math in CONFIGS:
        if not fast_math or level == "-O0":
            outputs.append(compile_clang(core, target, level, fast_math))
            continue
        if fast_math_program is None:
            template = compile_clang(core, target, level, fast_math=True)
            fast_math_program = template.program
        outputs.append(
            ClangOutput(
                level=level,
                fast_math=True,
                program=fast_math_program,
                time_factor=LEVEL_FACTORS[level],
            )
        )
    return outputs
