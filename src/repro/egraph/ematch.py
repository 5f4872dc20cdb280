"""E-matching: finding instances of a pattern inside an e-graph.

Patterns are :class:`~repro.ir.expr.Expr` trees whose
:class:`~repro.ir.expr.Var` nodes are pattern variables; a match binds each
to an e-class id.  Each rule compiles once, on its first search, into a
:class:`RuleProgram` (:func:`rule_program`, cached per distinct ``(lhs,
rhs)`` and shared by every target): the e-matching abstract machine of de
Moura and Bjørner (CADE 2007) that egg also uses, specialised to Python
source.  Its search is a nest of ``for`` loops over the snapshot's
``by_head``, one per lhs operator node in left-to-right depth-first order,
with variables in local slots; given an rhs, it drops already-applied
matches (the rhs already sits in the matched class) by inline hashcons
lookups, so a limit counts only graph-changing matches.  Its instantiate
function is a straight-line chain of ``add_node`` calls.  Heads and
variable names are namespace constants: no rule text enters the source.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from types import CodeType
from typing import NamedTuple

from ..ir.expr import App, Expr, Var
from .egraph import EGraph
from .enode import head_of_expr

Subst = dict[str, int]

#: CPython refuses more than 20 statically nested loops in one function;
#: a search needs one per lhs operator node plus one over the roots.
_MAX_PATTERN_OPS = 19


def pattern_heads(pattern: Expr) -> frozenset:
    """Every e-node head a match of ``pattern`` needs somewhere in the graph.

    The operator of each application and the head of each literal or
    constant leaf; pattern variables need none.  When one of them is missing
    from :meth:`EGraph.heads`, :func:`search_pattern` returns no matches.
    """
    return frozenset(
        head_of_expr(node)
        for _path, node in pattern.subexprs()
        if not isinstance(node, Var)
    )


class RuleProgram(NamedTuple):
    """``search(egraph, snapshot, limit >= 1)`` -> matches and
    ``instantiate(add_node, subst)`` -> rhs class (None if not built)."""

    search: object
    instantiate: object

    def matches(self, egraph: EGraph, limit: int | None = None) -> list:
        """Matches in the graph's current snapshot, at most ``limit``."""
        if limit is not None and limit <= 0:
            return []
        return self.search(egraph, egraph.snapshot(), limit or sys.maxsize)


#: Source digest -> code.  Rules of one shape (equal up to heads and
#: variable names, which live in each program's namespace) generate the
#: same source, so they share one code object: less memory per process.
_CODE: dict[bytes, CodeType] = {}


@functools.cache
def rule_program(lhs: Expr | None, rhs: Expr | None) -> RuleProgram:
    """Rule ``lhs => rhs``'s program; without ``rhs`` the search keeps
    every match, without ``lhs`` there is only an instantiate function."""
    gen = _Generator()
    if lhs is not None:
        gen.search(lhs, rhs)
    if rhs is not None:
        gen.instantiate(rhs)
    source = "\n".join(gen.lines)
    key = hashlib.blake2b(source.encode(), digest_size=16).digest()
    if key not in _CODE:
        _CODE[key] = compile(source, "<rule program>", "exec")
    namespace = dict(gen.consts)
    exec(_CODE[key], namespace)
    return RuleProgram(namespace.get("search"), namespace.get("instantiate"))


class _Generator:
    """Writes one rule program's source: its own locals (``c0``, ``tN``,
    ``vN``, ``LN``, ``rN``, ``xN``) and ``HN`` namespace constants only."""

    def __init__(self):
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        self._names: dict[object, str] = {}
        self.leaves: dict[object, str] = {}
        self.slots: dict[str, str] = {}

    def const(self, value) -> str:
        if value not in self._names:
            name = self._names[value] = sys.intern(f"H{len(self._names)}")
            self.consts[name] = value
        return self._names[value]

    def emit(self, depth: int, *lines: str) -> None:
        self.lines += ["    " * depth + line for line in lines]

    def local(self, node: Expr) -> str:
        """The local holding a variable's or a leaf's class id."""
        if isinstance(node, Var):
            return self.slots[node.name]
        return self.leaves[head_of_expr(node)]

    def resolve_leaves(self, pattern: Expr, required: bool) -> None:
        """Look each literal leaf's class up once per search; a required
        (lhs) leaf the graph lacks means nothing can match."""
        for _path, node in pattern.subexprs():
            head = head_of_expr(node)
            if isinstance(node, (App, Var)) or head in self.leaves:
                continue
            local = self.leaves[head] = f"L{len(self.leaves)}"
            self.emit(1, f"{local} = egraph.lookup_node({self.const(head)}, ())")
            if required:
                self.emit(1, f"if {local} is None:", "    return []")

    def search(self, lhs: Expr, rhs: Expr | None) -> None:
        ops = sum(isinstance(node, App) for _path, node in lhs.subexprs())
        if ops > _MAX_PATTERN_OPS:
            raise ValueError(f"pattern has {ops} operator nodes; compiled "
                             f"rules support at most {_MAX_PATTERN_OPS}")
        self.emit(0, "def search(egraph, snap, limit):")
        self.emit(1, "by_head = snap.by_head", "out = []")
        self.resolve_leaves(lhs, required=True)
        if rhs is not None:
            self.resolve_leaves(rhs, required=False)
            self.emit(1, "hc = egraph._hashcons", "find = egraph._uf.find")
        if isinstance(lhs, App):
            roots = f"egraph.classes_with_head({self.const(lhs.op)})"
        elif isinstance(lhs, Var):
            roots = "by_head"
            self.slots[lhs.name] = "c0"
        else:
            roots = f"({self.local(lhs)},)"
        self.emit(1, f"for c0 in {roots}:")
        depth = 2
        # One loop per operator node, in pre-order.  A loop checks its
        # variable and leaf arguments before the loops of its operator
        # arguments: pure filters, so the match order is unchanged.
        steps = [(lhs, "c0")] if isinstance(lhs, App) else []
        while steps:
            node, cls = steps.pop(0)
            tup = f"t{depth}"
            self.emit(depth, f"for {tup} in by_head[{cls}].get"
                             f"({self.const(node.op)}, ()):",
                      f"    if len({tup}) != {len(node.args)}:",
                      "        continue")
            depth += 1
            nested = []
            for index, arg in enumerate(node.args):
                item = f"{tup}[{index}]"
                if isinstance(arg, App):
                    nested.append((arg, item))
                elif isinstance(arg, Var) and arg.name not in self.slots:
                    self.slots[arg.name] = f"v{len(self.slots)}"
                    self.emit(depth, f"{self.slots[arg.name]} = {item}")
                else:
                    self.emit(depth, f"if {item} != {self.local(arg)}:",
                              "    continue")
            steps[:0] = nested
        if rhs is not None:
            self.applied_check(rhs, depth)
        subst = ", ".join(
            f"{self.const(name)}: {slot}" for name, slot in self.slots.items()
        )
        self.emit(depth, f"out.append((c0, {{{subst}}}))",
                  "if len(out) == limit:", "    return out")
        self.emit(1, "return out")

    def applied_check(self, rhs: Expr, depth: int) -> None:
        """``continue`` when the rhs already sits in ``c0``: its operator
        nodes are looked up in post-order, each once all earlier ones were
        found (an absent leaf or node means the match is not applied)."""
        lookups: list[str] = []
        root = self.lookup(rhs, lookups)
        for index, lookup in enumerate(lookups):
            self.emit(depth, f"r{index} = {lookup}",
                      f"if r{index} is not None:")
            depth += 1
        self.emit(depth, f"if {root} == c0:", "    continue")

    def lookup(self, node: Expr, lookups: list[str]) -> str:
        """The expression for ``node``'s class id in the applied check,
        appending its operator nodes' hashcons lookups in post-order."""
        if not isinstance(node, App):
            return self.local(node)
        args = _tuple([self.lookup(arg, lookups) for arg in node.args])
        lookups.append(f"hc.get(({self.const(node.op)}, {args}))")
        return f"find(r{len(lookups) - 1})"

    def instantiate(self, rhs: Expr) -> None:
        self.emit(0, "def instantiate(add, subst):")
        self.emit(1, f"return {self.build(rhs, {})}")

    def build(self, node: Expr, built: dict[str, str]) -> str:
        """Emit the insertion of ``node`` in post-order; returns its local.
        ``built`` maps each variable already read from ``subst``."""
        if isinstance(node, Var):
            if node.name not in built:
                built[node.name] = f"x{len(self.lines)}"
                self.emit(1, f"{built[node.name]} = "
                             f"subst[{self.const(node.name)}]")
            return built[node.name]
        if isinstance(node, App):
            head, args = node.op, [self.build(arg, built) for arg in node.args]
        else:
            head, args = head_of_expr(node), []
        local = f"x{len(self.lines)}"
        self.emit(1, f"{local} = add({self.const(head)}, {_tuple(args)})")
        return local


def _tuple(items: list[str]) -> str:
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def search_pattern(egraph: EGraph, pattern: Expr,
                   limit: int | None = None) -> list[tuple[int, Subst]]:
    """Up to ``limit`` ``(class_id, subst)`` matches of ``pattern``, in
    depth-first order; ``class_id`` is the class the pattern matched in."""
    return rule_program(pattern, None).matches(egraph, limit)


def instantiate(egraph: EGraph, template: Expr, subst: Subst) -> int:
    """Insert ``template`` (with pattern vars bound by ``subst``) and return
    its e-class id; an unbound variable raises :class:`KeyError`."""
    return rule_program(None, template).instantiate(egraph.add_node, subst)
