"""Immutable expression IR for mixed real/floating-point terms.

The IR is a small S-expression-shaped tree with four node kinds:

* :class:`Var` — a free variable (an FPCore argument),
* :class:`Num` — an exact rational literal (stored as :class:`fractions.Fraction`),
* :class:`Const` — a named mathematical constant (``PI``, ``E``, infinities),
* :class:`App` — an operator applied to argument expressions.

Operator names are plain strings.  *Real* operators use mathematical names
(``+``, ``sqrt``, ``log1p``, …, see :mod:`repro.ir.ops`); *float* operators
use target-operator names such as ``add.f64`` or ``rcp.f32`` and are declared
by target descriptions (:mod:`repro.targets`).  Both kinds coexist in one
tree, which is exactly the "mixed real-float expression" representation the
paper's instruction selection works over.

All nodes are immutable and hashable with precomputed hashes, so they can be
used as dictionary keys in the e-graph hashcons and in memo tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

Path = tuple[int, ...]


class Expr:
    """Base class for all IR nodes.  Do not instantiate directly."""

    __slots__ = ("_hash",)

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __hash__(self) -> int:
        return self._hash

    # --- generic tree utilities -------------------------------------------

    def size(self) -> int:
        """Number of nodes in the tree."""
        return 1 + sum(c.size() for c in self.children())

    def depth(self) -> int:
        """Height of the tree (a leaf has depth 1)."""
        kids = self.children()
        return 1 + (max(k.depth() for k in kids) if kids else 0)

    def free_vars(self) -> frozenset[str]:
        """The set of variable names appearing in the expression."""
        out: set[str] = set()
        stack: list[Expr] = [self]
        while stack:
            e = stack.pop()
            if isinstance(e, Var):
                out.add(e.name)
            else:
                stack.extend(e.children())
        return frozenset(out)

    def subexprs(self) -> Iterator[tuple[Path, "Expr"]]:
        """Yield ``(path, node)`` for every node, in pre-order.

        A path is a tuple of child indices from the root; the root's path is
        the empty tuple.
        """
        stack: list[tuple[Path, Expr]] = [((), self)]
        while stack:
            path, e = stack.pop()
            yield path, e
            for i, c in enumerate(e.children()):
                stack.append((path + (i,), c))

    def at(self, path: Path) -> "Expr":
        """Return the subexpression at ``path``."""
        e: Expr = self
        for i in path:
            e = e.children()[i]
        return e

    def replace_at(self, path: Path, replacement: "Expr") -> "Expr":
        """Return a copy of the tree with the node at ``path`` replaced."""
        if not path:
            return replacement
        if not isinstance(self, App):
            raise IndexError(f"path {path} into a leaf expression")
        i, rest = path[0], path[1:]
        kids = list(self.args)
        kids[i] = kids[i].replace_at(rest, replacement)
        return App(self.op, tuple(kids))

    def substitute(self, bindings: dict[str, "Expr"]) -> "Expr":
        """Replace free variables by the expressions in ``bindings``."""
        if isinstance(self, Var):
            return bindings.get(self.name, self)
        if isinstance(self, App):
            new_args = tuple(a.substitute(bindings) for a in self.args)
            if all(n is o for n, o in zip(new_args, self.args)):
                return self
            return App(self.op, new_args)
        return self

    def map_ops(self, fn: Callable[[str], str]) -> "Expr":
        """Rename every operator through ``fn`` (used for lowering passes)."""
        if isinstance(self, App):
            return App(fn(self.op), tuple(a.map_ops(fn) for a in self.args))
        return self

    def operators(self) -> set[str]:
        """The set of operator names used anywhere in the tree."""
        out: set[str] = set()
        stack: list[Expr] = [self]
        while stack:
            e = stack.pop()
            if isinstance(e, App):
                out.add(e.op)
                stack.extend(e.args)
        return out


class Var(Expr):
    """A free variable, referring to an FPCore argument by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Var", name)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other) -> bool:
        return type(other) is Var and other.name == self.name

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    __hash__ = Expr.__hash__


class Num(Expr):
    """An exact rational literal.

    Literals are stored exactly so that rewrites and the interval oracle
    never lose information; rounding into a concrete float format happens
    only at evaluation/codegen time.
    """

    __slots__ = ("value",)

    def __init__(self, value: Union[int, Fraction, str]):
        frac = Fraction(value)
        object.__setattr__(self, "value", frac)
        object.__setattr__(self, "_hash", hash(("Num", frac)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other) -> bool:
        return type(other) is Num and other.value == self.value

    def __repr__(self) -> str:
        return f"Num({self.value})"

    __hash__ = Expr.__hash__


#: Names of supported mathematical constants.
CONSTANTS = ("PI", "E", "INFINITY", "NAN", "TRUE", "FALSE")


class Const(Expr):
    """A named constant: PI, E, INFINITY, NAN, TRUE or FALSE."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in CONSTANTS:
            raise ValueError(f"unknown constant {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Const", name)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other) -> bool:
        return type(other) is Const and other.name == self.name

    def __repr__(self) -> str:
        return f"Const({self.name!r})"

    __hash__ = Expr.__hash__


class App(Expr):
    """An operator application ``op(arg0, arg1, ...)``."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Sequence[Expr] = ()):
        args = tuple(args)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash(("App", op, args)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __eq__(self, other) -> bool:
        return (
            type(other) is App
            and other._hash == self._hash
            and other.op == self.op
            and other.args == self.args
        )

    def __repr__(self) -> str:
        return f"App({self.op!r}, {list(self.args)!r})"

    __hash__ = Expr.__hash__


# --- convenience constructors ------------------------------------------------

ZERO = Num(0)
ONE = Num(1)
TWO = Num(2)


def add(a: Expr, b: Expr) -> Expr:
    return App("+", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return App("-", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    return App("*", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    return App("/", (a, b))


def neg(a: Expr) -> Expr:
    return App("neg", (a,))
