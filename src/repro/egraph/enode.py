"""E-node representation.

An e-node is a pair ``(head, args)`` where ``args`` is a tuple of e-class
ids.  Heads are hashable tags:

* ``op`` (a plain string) for operator applications,
* ``("var", name)`` for variables,
* ``("num", Fraction)`` for exact literals,
* ``("const", name)`` for named constants.

Keeping e-nodes as plain tuples (instead of objects) keeps the hashcons and
e-matching hot paths fast in pure Python.
"""

from __future__ import annotations

from typing import Union

from ..ir.expr import App, Const, Expr, Num, Var

Head = Union[str, tuple]
ENode = tuple  # (Head, tuple[int, ...])


def head_of_expr(expr: Expr) -> Head:
    """The e-node head corresponding to a leaf or application node."""
    if isinstance(expr, Var):
        return ("var", expr.name)
    if isinstance(expr, Num):
        return ("num", expr.value)
    if isinstance(expr, Const):
        return ("const", expr.name)
    if isinstance(expr, App):
        return expr.op
    raise TypeError(f"not an Expr: {expr!r}")


def is_op_head(head: Head) -> bool:
    """True for operator heads (as opposed to leaf heads)."""
    return isinstance(head, str)


def head_to_leaf_expr(head: Head) -> Expr:
    """Convert a leaf head back into an expression node."""
    tag, payload = head
    if tag == "var":
        return Var(payload)
    if tag == "num":
        return Num(payload)
    if tag == "const":
        return Const(payload)
    raise ValueError(f"not a leaf head: {head!r}")
