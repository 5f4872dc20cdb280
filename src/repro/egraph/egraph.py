"""The e-graph data structure (paper section 3.2).

An e-graph maintains a congruence-closed equivalence relation over terms.
This implementation follows egg [Willsey et al. 2021]: a union-find over
e-class ids, a hashcons from canonical e-nodes to class ids, and deferred
*rebuilding* that restores congruence invariants in a batch after rewrites.

A class id that loses a union never becomes a root again, so the graph keeps
the set of those merged-away ids (``_dead``): an id is a root exactly when it
is not in ``_dead``, and an e-node is canonical exactly when
``_dead.isdisjoint(args)``, a C-level test.  Insertion, unions, rebuilding,
head-index queries and snapshots use it so that only stale ids pay for
``find`` calls and a rebuilt argument tuple.

On top of that, a **head index** (head -> classes containing a node with
that head) serves the rewrite engine.  It is maintained on insertion and
compacted lazily on query, so pattern roots resolve to candidate classes
directly instead of scanning every class, and its key set tells the
saturation runner which rules cannot match at all (:meth:`EGraph.heads`).

Searches and extractors read the graph through a per-generation
:class:`GraphSnapshot`, which builds each of its two views (the matcher's
and the extractor's) only when it is first read.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, KeysView

from ..ir.expr import App, Expr
from .enode import ENode, Head, head_of_expr, head_to_leaf_expr, is_op_head
from .stats import current_sink
from .unionfind import UnionFind


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
        # Class ids merged away by a union: exactly the ids ``find`` moves.
        self._dead: set[int] = set()
        self.version = 0  # bumped on every union; used to detect saturation
        #: Distinct e-nodes ever created (monotonic; never decremented by
        #: rebuild dedup, so (version, nodes_built) stamps every mutation).
        self.nodes_built = 0
        #: Class repairs and stale e-nodes (own nodes and parent entries
        #: whose arguments held a merged-away id) over all rebuilds.
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
        if class_id in self._dead:
            return self._uf.find(class_id)
        return class_id

    def same(self, a: int, b: int) -> bool:
        """True when ids ``a`` and ``b`` refer to the same e-class."""
        return self._uf.same(a, b)

    # --- insertion -----------------------------------------------------------

    def canonicalize(self, node: ENode) -> ENode:
        head, args = node
        if self._dead.isdisjoint(args):
            return node
        return (head, tuple(map(self._uf.find, args)))

    def add_node(self, head, args: Iterable[int]) -> int:
        """Insert an e-node, returning its e-class id (deduplicated)."""
        args = tuple(args)
        dead = self._dead
        if not dead.isdisjoint(args):
            args = tuple(map(self._uf.find, args))
        node = (head, args)
        existing = self._hashcons.get(node)
        if existing is not None:
            if existing in dead:
                return self._uf.find(existing)
            return existing
        class_id = self._uf.make_set()
        eclass = EClass(class_id)
        eclass.nodes[node] = None
        self._classes[class_id] = eclass
        self._hashcons[node] = class_id
        for arg in args:
            self._classes[arg].parents.append((node, class_id))
        self.nodes_built += 1
        self._nnodes += 1
        holders = self._index.get(head)
        if holders is None:
            self._index[head] = {class_id: None}
        else:
            holders[class_id] = None
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
        dead = self._dead
        ra = self._uf.find(a) if a in dead else a
        rb = self._uf.find(b) if b in dead else b
        if ra == rb:
            return ra
        self.version += 1
        # Both are roots, so link them directly; the smaller id wins, as in
        # ``UnionFind.union``.
        root, other = (ra, rb) if ra < rb else (rb, ra)
        self._uf._parent[other] = root
        dead.add(other)
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
        find = self._uf.find
        root = find(class_id)
        eclass = self._classes.get(root)
        if eclass is None:
            return
        self.repairs += 1
        dead, hashcons = self._dead, self._hashcons
        version = self.version
        stale = 0
        # Re-canonicalize this class's own nodes; congruent duplicates found
        # in other classes trigger further (deferred) unions.
        for node in list(eclass.nodes):
            canon = node
            if not dead.isdisjoint(node[1]):
                canon = (node[0], tuple(map(find, node[1])))
                hashcons.pop(node, None)
                stale += 1
            owner = hashcons.get(canon)
            if owner is not None and owner != root:
                root = self.union(owner, root)
            hashcons[canon] = root
        # Deduplicate the node dict, unless every node was canonical and no
        # union has run since (it could merge in stale nodes or kill an
        # argument): then the rebuilt dict would equal the old one.
        if stale or self.version != version:
            eclass = self._classes[root]
            before = len(eclass.nodes)
            eclass.nodes = {self.canonicalize(n): None for n in eclass.nodes}
            self._nnodes -= before - len(eclass.nodes)
        # Repair and deduplicate parent back-references; congruent parents
        # (same canonical node in two classes) are merged.
        seen: dict[ENode, int] = {}
        for parent_node, parent_class in eclass.parents:
            canon = parent_node
            if not dead.isdisjoint(parent_node[1]):
                canon = (parent_node[0], tuple(map(find, parent_node[1])))
                hashcons.pop(parent_node, None)
                stale += 1
            if parent_class in dead:
                parent_class = find(parent_class)
            prior = seen.get(canon)
            if prior is not None and prior != parent_class:
                parent_class = self.union(prior, parent_class)
            seen[canon] = hashcons[canon] = parent_class
        eclass.parents = list(seen.items())
        self.stale_nodes += stale

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
        if self._dead.isdisjoint(entry):
            return list(entry)
        find = self._uf.find
        canon: dict[int, None] = {}
        for class_id in entry:
            canon[find(class_id)] = None
        if len(canon) != len(entry):
            self._index[head] = dict.fromkeys(canon)
        return list(canon)

    def snapshot(self) -> "GraphSnapshot":
        """This graph's topology snapshot at the current generation.

        Cached: every search of an iteration and extractors for any number
        of cost functions share one snapshot until the graph mutates, which
        is what makes re-pricing a saturated e-graph under a second cost
        model nearly free.
        """
        snap = self._snapshot
        if snap is None or snap.generation != self.generation:
            snap = self._snapshot = GraphSnapshot(self)
        else:
            sink = current_sink()
            if sink is not None:
                sink.snapshot_reuses += 1
        return snap

    def expr_of_node(self, node: ENode, choose) -> Expr:
        """Build an Expr from ``node``, choosing child exprs via ``choose``."""
        head, args = node
        if is_op_head(head):
            return App(head, tuple(choose(a) for a in args))
        return head_to_leaf_expr(head)


class StaleSnapshotError(RuntimeError):
    """A snapshot view was first read after its graph had mutated."""


class GraphSnapshot:
    """A canonicalized view of one e-graph generation.

    Both halves of the engine run over this frozen view: **e-matching**
    resolves a class's nodes by head through :attr:`by_head` (canonical
    integer ids everywhere, so binding checks are int comparisons with no
    union-find calls), and **extraction** drives its parents worklist over
    :attr:`nodes`/:attr:`parents`.  Computing these per search or per
    extractor repeats thousands of ``find`` calls; snapshotting once per
    generation lets every rule search of an iteration and every extractor
    (under any cost model) share the traversal structure.

    The two views are built separately, each on its first read: searches
    never pay for ``nodes``/``parents``, nor extractions for ``by_head``.
    The snapshot holds its graph only through a weak reference (a strong
    one would make a cycle through ``EGraph._snapshot``), and building a
    view once the graph has moved past :attr:`generation` raises
    :class:`StaleSnapshotError` rather than reading the newer graph.
    """

    __slots__ = ("generation", "_graph", "_by_head", "_nodes", "_parents")

    def __init__(self, egraph: EGraph):
        self.generation = egraph.generation
        self._graph = weakref.ref(egraph)
        self._by_head: dict[int, dict[Head, list[tuple[int, ...]]]] | None = None
        self._nodes: dict[int, list[tuple[Head, tuple[int, ...], ENode]]] | None = None
        self._parents: dict[int, list[int]] | None = None

    @property
    def by_head(self) -> dict[int, dict[Head, list[tuple[int, ...]]]]:
        """class id -> head -> [canonical args, ...] (the matcher's view)."""
        if self._by_head is None:
            self._by_head = _index_heads(self._live())
        return self._by_head

    @property
    def nodes(self) -> dict[int, list[tuple[Head, tuple[int, ...], ENode]]]:
        """class id -> [(head, canonical args, original node), ...]."""
        if self._nodes is None:
            self._nodes, self._parents = _topology(self._live())
        return self._nodes

    @property
    def parents(self) -> dict[int, list[int]]:
        """class id -> parent class ids (deduplicated, insertion-ordered)."""
        if self._parents is None:
            self._nodes, self._parents = _topology(self._live())
        return self._parents

    def _live(self) -> EGraph:
        """The graph, which must still be at this snapshot's generation;
        counts one view build in the thread's engine-stats sink."""
        egraph = self._graph()
        if egraph is None or egraph.generation != self.generation:
            raise StaleSnapshotError(
                f"snapshot of generation {self.generation} read after its "
                "graph changed"
            )
        sink = current_sink()
        if sink is not None:
            sink.snapshots_built += 1
        return egraph


def _index_heads(egraph: EGraph) -> dict[int, dict[Head, list[tuple[int, ...]]]]:
    """The matcher's view: each class's canonical argument tuples by head."""
    find = egraph._uf.find
    dead = egraph._dead
    by_head: dict[int, dict[Head, list[tuple[int, ...]]]] = {}
    for class_id, eclass in egraph._classes.items():
        heads = by_head[class_id] = {}
        for head, args in eclass.nodes:
            if not dead.isdisjoint(args):
                args = tuple(map(find, args))
            same = heads.get(head)
            if same is None:
                heads[head] = [args]
            else:
                same.append(args)
    return by_head


def _topology(egraph: EGraph) -> tuple[dict, dict]:
    """The extractor's view: ``(nodes, parents)`` of :class:`GraphSnapshot`."""
    find = egraph._uf.find
    dead = egraph._dead
    nodes: dict[int, list[tuple[Head, tuple[int, ...], ENode]]] = {}
    # Live classes are keyed by their root ids, and canonical arguments
    # are roots, so every argument has its entry here.  A class appends
    # itself to its children's lists only while its own nodes are walked,
    # so a repeat is always the last entry.
    parents: dict[int, list[int]] = {cid: [] for cid in egraph._classes}
    for class_id, eclass in egraph._classes.items():
        entries = nodes[class_id] = []
        for node in eclass.nodes:
            head, args = node
            if not dead.isdisjoint(args):
                args = tuple(map(find, args))
            entries.append((head, args, node))
            for arg in args:
                seen = parents[arg]
                if not seen or seen[-1] != class_id:
                    seen.append(class_id)
    return nodes, parents
