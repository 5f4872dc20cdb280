"""The e-graph engine as it was before rebuild learned to skip canonical
e-nodes, frozen for differential tests.

A verbatim copy of ``EGraph``/``GraphSnapshot`` whose ``_repair`` rebuilds
every own node and parent entry with ``find`` on each argument, and whose
snapshot canonicalizes every node.  ``tests/test_egraph_rebuild.py`` runs it
beside :class:`repro.egraph.EGraph` through the same ``run_rules`` and
compares the two states after every rebuild.  The only additions are the
``repairs``/``stale_nodes`` counters the runner reads, counted here the
old way (``canon != node``), so the reports can be compared whole.
"""

from __future__ import annotations

from typing import Iterable, Iterator, KeysView

from repro.ir.expr import App, Expr
from repro.egraph.enode import ENode, Head, head_of_expr, head_to_leaf_expr, is_op_head
from repro.egraph.unionfind import UnionFind


class EClass:
    """One equivalence class: its e-nodes plus parent back-references."""

    __slots__ = ("id", "nodes", "parents")

    def __init__(self, class_id: int):
        self.id = class_id
        # Insertion-ordered (dict keys, values unused): e-node iteration
        # order reaches extraction tie-breaks, and set order would vary
        # with per-process string-hash randomization.
        self.nodes: dict[ENode, None] = {}
        self.parents: list[tuple[ENode, int]] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EClass({self.id}, {len(self.nodes)} nodes)"


class EGraph:
    """A congruence-closed e-graph with egg-style deferred rebuilding."""

    def __init__(self):
        self._uf = UnionFind()
        self._classes: dict[int, EClass] = {}
        self._hashcons: dict[ENode, int] = {}
        self._pending: list[int] = []
        self.version = 0  # bumped on every union; used to detect saturation
        #: Distinct e-nodes ever created (monotonic; never decremented by
        #: rebuild dedup, so (version, nodes_built) stamps every mutation).
        self.nodes_built = 0
        self.repairs = 0
        self.stale_nodes = 0
        # Live node count, maintained incrementally (merges and rebuild
        # dedup subtract) so the node-budget check in the apply loop is
        # O(1) instead of a sum over every class.
        self._nnodes = 0
        # head -> {class id: None}: every class that has ever held a node
        # with that head.  Ids may go stale after unions; queries
        # canonicalize and compact lazily.  No removal is ever needed: a
        # class only gains heads (nodes survive merges, heads survive
        # re-canonicalization), so the index only over-approximates by
        # staleness, never misses.
        self._index: dict[Head, dict[int, None]] = {}
        self._snapshot: "GraphSnapshot | None" = None

    @property
    def generation(self) -> tuple[int, int]:
        """A stamp that changes whenever the graph's contents change.

        Extractors key their shared topology snapshots on this, so one
        snapshot serves every cost function until the next mutation.
        """
        return (self.version, self.nodes_built)

    # --- size and iteration ------------------------------------------------

    @property
    def num_classes(self) -> int:
        return len(self._classes)

    @property
    def num_nodes(self) -> int:
        return self._nnodes

    def classes(self) -> Iterator[EClass]:
        return iter(list(self._classes.values()))

    def eclass(self, class_id: int) -> EClass:
        return self._classes[self.find(class_id)]

    def nodes_of(self, class_id: int) -> tuple[ENode, ...]:
        return tuple(self.eclass(class_id).nodes)

    def find(self, class_id: int) -> int:
        """Canonical id of the class containing ``class_id``."""
        return self._uf.find(class_id)

    def same(self, a: int, b: int) -> bool:
        """True when ids ``a`` and ``b`` refer to the same e-class."""
        return self._uf.same(a, b)

    # --- insertion -----------------------------------------------------------

    def canonicalize(self, node: ENode) -> ENode:
        head, args = node
        return (head, tuple(map(self._uf.find, args)))

    def add_node(self, head, args: Iterable[int]) -> int:
        """Insert an e-node, returning its e-class id (deduplicated)."""
        node = (head, tuple(map(self._uf.find, args)))
        existing = self._hashcons.get(node)
        if existing is not None:
            return self._uf.find(existing)
        class_id = self._uf.make_set()
        eclass = EClass(class_id)
        eclass.nodes[node] = None
        self._classes[class_id] = eclass
        self._hashcons[node] = class_id
        for arg in node[1]:
            self._classes[arg].parents.append((node, class_id))
        self.nodes_built += 1
        self._nnodes += 1
        self._index.setdefault(node[0], {})[class_id] = None
        return class_id

    def add_expr(self, expr: Expr) -> int:
        """Insert a whole expression tree, returning the root's class id."""
        if isinstance(expr, App):
            args = tuple(self.add_expr(a) for a in expr.args)
            return self.add_node(expr.op, args)
        return self.add_node(head_of_expr(expr), ())

    def lookup_expr(self, expr: Expr) -> int | None:
        """Find the e-class of ``expr`` without inserting anything new."""
        if isinstance(expr, App):
            args = []
            for a in expr.args:
                cid = self.lookup_expr(a)
                if cid is None:
                    return None
                args.append(cid)
            node = (expr.op, tuple(args))
        else:
            node = (head_of_expr(expr), ())
        found = self._hashcons.get(self.canonicalize(node))
        return self._uf.find(found) if found is not None else None

    def lookup_node(self, head, args: Iterable[int]) -> int | None:
        """The e-class holding the (canonicalized) e-node, without inserting."""
        found = self._hashcons.get(self.canonicalize((head, tuple(args))))
        return self._uf.find(found) if found is not None else None

    # --- merging and rebuilding ------------------------------------------------

    def union(self, a: int, b: int) -> int:
        """Assert that classes ``a`` and ``b`` are equal; defer congruence."""
        ra, rb = self._uf.find(a), self._uf.find(b)
        if ra == rb:
            return ra
        self.version += 1
        root = self._uf.union(ra, rb)
        other = rb if root == ra else ra
        winner, loser = self._classes[root], self._classes.pop(other)
        before = len(winner.nodes) + len(loser.nodes)
        winner.nodes.update(loser.nodes)
        self._nnodes -= before - len(winner.nodes)
        winner.parents.extend(loser.parents)
        self._pending.append(root)
        return root

    def rebuild(self) -> None:
        """Restore hashcons/congruence invariants after a batch of unions."""
        while self._pending:
            todo = {self._uf.find(c) for c in self._pending}
            self._pending.clear()
            for class_id in todo:
                if class_id in self._classes:
                    self._repair(class_id)

    def _repair(self, class_id: int) -> None:
        class_id = self._uf.find(class_id)
        eclass = self._classes.get(class_id)
        if eclass is None:
            return
        self.repairs += 1
        # Re-canonicalize this class's own nodes; congruent duplicates found
        # in other classes trigger further (deferred) unions.
        for node in list(eclass.nodes):
            canon = self.canonicalize(node)
            if canon != node:
                self.stale_nodes += 1
                self._hashcons.pop(node, None)
            owner = self._hashcons.get(canon)
            if owner is not None and not self._uf.same(owner, class_id):
                self.union(owner, class_id)
            self._hashcons[canon] = self._uf.find(class_id)
        class_id = self._uf.find(class_id)
        eclass = self._classes[class_id]
        before = len(eclass.nodes)
        eclass.nodes = {self.canonicalize(n): None for n in eclass.nodes}
        self._nnodes -= before - len(eclass.nodes)
        # Repair and deduplicate parent back-references; congruent parents
        # (same canonical node in two classes) are merged.
        seen: dict[ENode, int] = {}
        order: list[ENode] = []
        for parent_node, parent_class in eclass.parents:
            canon = self.canonicalize(parent_node)
            if canon != parent_node:
                self.stale_nodes += 1
                self._hashcons.pop(parent_node, None)
            parent_class = self._uf.find(parent_class)
            prior = seen.get(canon)
            if prior is not None:
                if not self._uf.same(prior, parent_class):
                    self.union(prior, parent_class)
                seen[canon] = self._uf.find(parent_class)
            else:
                seen[canon] = parent_class
                order.append(canon)
            self._hashcons[canon] = self._uf.find(parent_class)
        eclass.parents = [(n, seen[n]) for n in order]

    # --- queries -----------------------------------------------------------------

    def represents(self, class_id: int, expr: Expr) -> bool:
        """True when the e-class contains (represents) ``expr``."""
        found = self.lookup_expr(expr)
        return found is not None and self.same(found, class_id)

    def heads(self) -> KeysView[Head]:
        """Every head some node of the graph holds (a live view).

        Read off the head index, whose keys are never removed: a node keeps
        its head through merges and rebuilds, so a head absent here is held
        by no class and no pattern that needs it can match.
        """
        return self._index.keys()

    def classes_with_head(self, head) -> list[int]:
        """Canonical ids of every class holding a node with ``head``.

        Backed by the head index: O(candidates), not O(classes).  Stale
        (merged-away) entries are compacted in place on the way through,
        and insertion order is preserved, so repeated queries are cheap
        and deterministic.
        """
        entry = self._index.get(head)
        if not entry:
            return []
        find = self._uf.find
        canon: dict[int, None] = {}
        for class_id in entry:
            canon[find(class_id)] = None
        if len(canon) != len(entry):
            self._index[head] = dict.fromkeys(canon)
        return list(canon)

    def op_nodes(self, op) -> Iterator[tuple[ENode, int]]:
        """Yield ``(enode, class_id)`` for every node whose head equals op."""
        for class_id in self.classes_with_head(op):
            eclass = self._classes[class_id]
            for node in list(eclass.nodes):
                if node[0] == op:
                    yield node, class_id

    def snapshot(self) -> "GraphSnapshot":
        """This graph's topology snapshot at the current generation.

        Cached: extractors for any number of cost functions share one
        snapshot until the graph mutates, which is what makes re-pricing a
        saturated e-graph under a second cost model nearly free.
        """
        snap = self._snapshot
        if snap is None or snap.generation != self.generation:
            snap = self._snapshot = GraphSnapshot(self)
            _record_snapshot(built=True)
        else:
            _record_snapshot(built=False)
        return snap

    def expr_of_node(self, node: ENode, choose) -> Expr:
        """Build an Expr from ``node``, choosing child exprs via ``choose``."""
        head, args = node
        if is_op_head(head):
            return App(head, tuple(choose(a) for a in args))
        return head_to_leaf_expr(head)


class GraphSnapshot:
    """A canonicalized view of one e-graph generation.

    Both halves of the engine run over this frozen view: **e-matching**
    resolves a class's nodes by head through :attr:`by_head` (canonical
    integer ids everywhere, so binding checks are int comparisons with no
    union-find calls), and **extraction** drives its parents worklist over
    :attr:`nodes`/:attr:`parents`.  Computing these per search or per
    extractor repeats thousands of ``find`` calls; snapshotting once per
    generation lets every rule search of an iteration and every extractor
    (untyped and typed, any cost function) share the traversal structure.
    The snapshot never mutates the graph and is invalidated by comparing
    :attr:`generation` against the live graph's.
    """

    __slots__ = ("generation", "nodes", "parents", "by_head")

    def __init__(self, egraph: EGraph):
        self.generation = egraph.generation
        #: class id -> [(head, canonical args, original node), ...]
        self.nodes: dict[int, list[tuple[Head, tuple[int, ...], ENode]]] = {}
        #: class id -> head -> [canonical args, ...] (the matcher's view)
        self.by_head: dict[int, dict[Head, list[tuple[int, ...]]]] = {}
        #: class id -> parent class ids (deduplicated, insertion-ordered)
        self.parents: dict[int, list[int]] = {}
        find = egraph.find
        parents: dict[int, dict[int, None]] = {}
        for eclass in egraph.classes():
            class_id = find(eclass.id)
            entries = self.nodes.setdefault(class_id, [])
            heads = self.by_head.setdefault(class_id, {})
            for node in eclass.nodes:
                canon_args = tuple(map(find, node[1]))
                entries.append((node[0], canon_args, node))
                heads.setdefault(node[0], []).append(canon_args)
            parents.setdefault(class_id, {})
        for class_id, entries in self.nodes.items():
            for _head, args, _node in entries:
                for arg in args:
                    parents.setdefault(arg, {})[class_id] = None
        self.parents = {cid: list(ps) for cid, ps in parents.items()}


def _record_snapshot(built: bool) -> None:
    """Record a snapshot build/reuse in the thread's engine-stats sink."""
    from repro.egraph.stats import current_sink

    sink = current_sink()
    if sink is not None:
        if built:
            sink.snapshots_built += 1
        else:
            sink.snapshot_reuses += 1
