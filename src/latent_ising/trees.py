"""Unrooted leaf-labeled trees: topology, surgery, and path correlations.

A tree Ising model lives on an unrooted tree whose observed nodes are the
leaves.  This module holds the topology representation plus the purely
combinatorial operations: degree normalization, path queries, correlations
as path products of edge weights, quartet classification, cut-and-paste
surgery, induced subtrees, and the edge-disjoint pair matching.  The
matching is computed once, batched over leaf subsets, and is the one the
closed-form leaf distribution multiplies correlations along.  Batched path
questions (which edges a pair's path uses, whether two topologies agree,
which leaves lie beyond an edge, through ``_side``) are answered from one
table of edge bipartitions, ``_edge_splits``.  A tree reaches canonical form
through two steps, each written once: ``_splice`` splices out degree-2
nodes, and ``_renumber`` renumbers internal nodes canonically and builds
and validates the tree once.  ``_rebuild`` is the two in a row, and every
surgery but cut-and-paste ends in it.  Cut-and-paste splits them: ``_detach``
cuts the moved side off and splices once, and each ``_attach`` pastes it
onto one target edge and renumbers, so many pastes of one cut share it.

All values are immutable after construction; every operation returns a new
object, so instances are safe to share across threads.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadParameter,
    InvalidCut,
    MalformedTree,
    OddSubset,
    TooFewLeaves,
    UnknownLeaf,
    UnknownPair,
)

Edge = Tuple[int, int]

#: absolute tolerance used when deciding that two cross-products tie
TIE_TOLERANCE = 1e-12


def edge_key(u: int, v: int) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class TreeTopology:
    """Unrooted tree over labeled leaves.

    Leaves carry external integer labels (a full model uses ``1..n``);
    internal nodes use identifiers strictly above every leaf label.  A
    one-leaf topology (a single isolated node) is allowed so that forests
    can carry singleton components.

    Raises :class:`MalformedTree` unless the edge set forms a connected,
    acyclic graph in which every leaf has degree exactly 1 and no internal
    node dangles with degree < 2.
    """

    __slots__ = ("leaves", "edges", "_adjacency", "_leaf_set")

    def __init__(self, leaves: Iterable[int], edges: Iterable[Edge]):
        self.leaves: Tuple[int, ...] = tuple(sorted(set(leaves)))
        if not self.leaves:
            raise MalformedTree("a tree needs at least one leaf")
        keyed = [(u, v) if u < v else (v, u) for u, v in edges]  # edge_key, inlined
        keyed.sort()
        self.edges: Tuple[Edge, ...] = tuple(keyed)
        self._leaf_set = frozenset(self.leaves)

        adjacency: Dict[int, List[int]] = {v: [] for v in self.leaves}
        for u, v in self.edges:
            if u == v:
                raise MalformedTree(f"self-loop at node {u}")
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        if len(set(self.edges)) != len(self.edges):
            raise MalformedTree("duplicate edge")
        # sorted edges give each node its smaller neighbours, then its larger
        # ones, both ascending, so every list is already sorted
        self._adjacency = {v: tuple(ns) for v, ns in adjacency.items()}
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self) -> None:
        nodes = self.nodes
        if len(self.leaves) == 1:
            if self.edges:
                raise MalformedTree("one-leaf tree must have no edges")
            return
        if len(self.edges) != len(nodes) - 1:
            raise MalformedTree("edge count does not match a tree")
        # connectivity
        seen = {self.leaves[0]}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for w in self._adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != len(nodes):
            raise MalformedTree("graph is disconnected")
        max_leaf = self.leaves[-1]
        for v in nodes:
            deg = len(self._adjacency[v])
            if v in self._leaf_set:
                if deg != 1:
                    raise MalformedTree(f"leaf {v} has degree {deg}")
            else:
                if v <= max_leaf:
                    raise MalformedTree(f"internal node {v} collides with leaf labels")
                if deg < 2:
                    raise MalformedTree(f"internal node {v} dangles with degree {deg}")

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._adjacency)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def is_leaf(self, v: int) -> bool:
        return v in self._leaf_set

    def neighbors(self, v: int) -> Tuple[int, ...]:
        try:
            return self._adjacency[v]
        except KeyError:
            raise UnknownLeaf(f"node {v} not in tree") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def is_binary(self) -> bool:
        """True when every internal node has degree exactly 3."""
        return all(
            len(ns) == 3 for v, ns in self._adjacency.items() if v not in self._leaf_set
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"TreeTopology(leaves={self.leaves}, edges={list(self.edges)})"


class WeightedTree:
    """A topology together with one weight in [-1, 1] per edge."""

    __slots__ = ("topology", "theta")

    def __init__(self, topology: TreeTopology, theta: Mapping[Edge, float]):
        self.topology = topology
        normalized = {edge_key(u, v): float(w) for (u, v), w in theta.items()}
        for e in topology.edges:
            if e not in normalized:
                raise MalformedTree(f"edge {e} has no weight")
        if len(normalized) != len(topology.edges):
            raise MalformedTree("weight map mentions edges not in the tree")
        for e, w in normalized.items():
            if not abs(w) <= 1.0 + 1e-12:  # NaN fails this too
                raise MalformedTree(f"weight {w} on edge {e} outside [-1, 1]")
        self.theta: Dict[Edge, float] = {
            e: min(1.0, max(-1.0, normalized[e])) for e in topology.edges
        }

    def weight(self, u: int, v: int) -> float:
        return self.theta[edge_key(u, v)]

    @property
    def leaves(self) -> Tuple[int, ...]:
        return self.topology.leaves

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeightedTree({self.topology!r}, {self.theta!r})"


class CorrelationVector:
    """Pairwise leaf correlations, one value in [-1, 1] per unordered pair.

    The vector may hold true path products, empirical estimates, or an
    arbitrary point of the cube; nothing here assumes it is realizable on a
    tree.
    """

    __slots__ = ("labels", "values", "_pos")

    def __init__(self, labels: Iterable[int], values: np.ndarray):
        self.labels: Tuple[int, ...] = tuple(sorted(labels))
        n = len(self.labels)
        values = np.asarray(values, dtype=float)
        if values.shape != (n * (n - 1) // 2,):
            raise UnknownPair(
                f"need {n * (n - 1) // 2} pair values for {n} leaves, got {values.shape}"
            )
        if not np.all(np.abs(values) <= 1.0 + 1e-9):  # NaN fails the test too
            raise UnknownPair("correlation outside [-1, 1]")
        self.values = np.clip(values, -1.0, 1.0)
        self.values.flags.writeable = False
        self._pos = {lab: k for k, lab in enumerate(self.labels)}

    @classmethod
    def from_pairs(cls, labels: Iterable[int], pairs: Mapping[Edge, float]) -> "CorrelationVector":
        """The given pair values, 0 elsewhere; pairs are placed by :meth:`index`."""
        labels = tuple(labels)
        return cls(labels, np.zeros(len(labels) * (len(labels) - 1) // 2)).replace(pairs)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, i: int, j: int) -> int:
        if i == j:
            raise UnknownPair(f"pair ({i}, {j}) has identical endpoints")
        try:
            a, b = sorted((self._pos[i], self._pos[j]))
        except KeyError as exc:
            raise UnknownLeaf(f"leaf {exc.args[0]} not covered by this vector") from None
        return _pair_offset(self.n, a, b)

    def get(self, i: int, j: int) -> float:
        return float(self.values[self.index(i, j)])

    def pairs(self) -> Iterable[Tuple[int, int, float]]:
        for a, b in itertools.combinations(range(self.n), 2):
            yield self.labels[a], self.labels[b], float(self.values[_pair_offset(self.n, a, b)])

    def restrict(self, leaves: Iterable[int]) -> "CorrelationVector":
        """The vector over a subset of the labels, in its own pair order."""
        leaves = tuple(sorted(leaves))
        if leaves == self.labels:
            return self
        missing = [v for v in leaves if v not in self._pos]
        if missing:
            raise UnknownLeaf(f"leaf {missing[0]} not covered by this vector")
        pos = np.array([self._pos[v] for v in leaves], dtype=np.intp)
        a, b = np.triu_indices(len(leaves), 1)
        return CorrelationVector(leaves, self.values[_pair_offset(self.n, pos[a], pos[b])])

    def abs(self) -> "CorrelationVector":
        return CorrelationVector(self.labels, np.abs(self.values))

    def replace(self, changes: Mapping[Edge, float]) -> "CorrelationVector":
        values = self.values.copy()
        for (i, j), v in changes.items():
            values[self.index(i, j)] = v
        return CorrelationVector(self.labels, values)

    def max_abs_difference(self, other: "CorrelationVector") -> float:
        if self.labels != other.labels:
            raise UnknownPair("vectors cover different leaf sets")
        if self.n < 2:
            return 0.0
        return float(np.max(np.abs(self.values - other.values)))


def _pair_offset(n: int, a: int, b: int) -> int:
    # positions 0 <= a < b < n in lexicographic pair order
    return a * (2 * n - a - 1) // 2 + (b - a - 1)


@dataclass(frozen=True)
class QuartetSplit:
    """The induced pairing of four leaves plus its product gap."""

    quartet: Tuple[int, int, int, int]
    split: Tuple[Edge, Edge]
    gap: float


# ---------------------------------------------------------------------------
# path queries


def path_nodes(topology: TreeTopology, a: int, b: int) -> List[int]:
    """Node sequence of the unique simple path from a to b (inclusive)."""
    if a == b:
        raise UnknownPair(f"path endpoints coincide: {a}")
    if a not in topology._adjacency:
        raise UnknownLeaf(f"node {a} not in tree")
    if b not in topology._adjacency:
        raise UnknownLeaf(f"node {b} not in tree")
    parent = {a: a}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        if v == b:
            break
        for w in topology.neighbors(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    nodes = [b]
    while nodes[-1] != a:
        nodes.append(parent[nodes[-1]])
    nodes.reverse()
    return nodes


def path(topology: TreeTopology, i: int, j: int) -> List[Edge]:
    """Ordered edge list of the unique path between two leaves."""
    nodes = path_nodes(topology, i, j)
    return [edge_key(u, v) for u, v in zip(nodes, nodes[1:])]


def component_nodes(topology: TreeTopology, start: int, blocked: Iterable[Edge]) -> frozenset:
    """Nodes reachable from ``start`` without crossing any blocked edge."""
    blocked_set = {edge_key(u, v) for u, v in blocked}
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in topology.neighbors(v):
            if w not in seen and edge_key(v, w) not in blocked_set:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def diameter(topology: TreeTopology) -> int:
    """Longest leaf-to-leaf path length in edges (0 for a single leaf)."""
    return int(_path_incidence(topology).sum(axis=1).max(initial=0))


def _edge_splits(topology: TreeTopology) -> np.ndarray:
    """(|E|, n) boolean, one postorder pass: row k marks the sorted leaves on
    v's side of ``topology.edges[k] = (u, v)``."""
    order, parent = _postorder(topology, topology.leaves[0])
    row = {v: k for k, v in enumerate(order)}
    n = topology.leaf_count
    below = np.zeros((len(order), n), dtype=bool)  # row k: the leaves below order[k]
    below[[row[leaf] for leaf in topology.leaves], np.arange(n)] = True
    children = order[:-1]  # the root comes last
    for k, v in enumerate(children):
        below[row[parent[v]]] |= below[k]
    edge_index = {e: k for k, e in enumerate(topology.edges)}
    splits = np.empty((len(topology.edges), n), dtype=bool)
    flip = np.array([v < parent[v] for v in children], dtype=bool)  # v is the edge's u
    splits[[edge_index[edge_key(v, parent[v])] for v in children]] = below[:-1] ^ flip[:, None]
    return splits


def _side(topology: TreeTopology, splits: np.ndarray, a: int, b: int) -> np.ndarray:
    """(n,) boolean mask of the sorted leaves on b's side of the edge (a, b),
    read from ``splits = _edge_splits(topology)``, whose row marks the side
    of the edge's larger endpoint."""
    row = splits[topology.edges.index(edge_key(a, b))]
    return row if b > a else ~row


def _path_incidence(topology: TreeTopology) -> np.ndarray:
    """(n(n-1)/2, |E|) boolean: row p marks the edges that separate leaf pair
    p, which are its path edges; pairs come in :func:`_pair_offset` order."""
    splits = _edge_splits(topology)
    a, b = np.triu_indices(topology.leaf_count, 1)
    return (splits[:, a] != splits[:, b]).T


# ---------------------------------------------------------------------------
# normalization


def _splice(adjacency: Dict[int, List[int]], leaf_set) -> List[Tuple[int, int, int]]:
    """Splice out every degree-2 internal node of ``adjacency``, in place.

    A splice leaves every other degree alone, so one ascending pass finds
    them all.  Returns each spliced node with the two neighbours it joined,
    ``(node, a, b)``, in splice order.
    """
    spliced = []
    for v in sorted(adjacency):
        if v in leaf_set or len(adjacency[v]) != 2:
            continue
        a, b = adjacency.pop(v)
        adjacency[a].remove(v)
        adjacency[b].remove(v)
        if b in adjacency[a]:
            raise MalformedTree("contraction produced a parallel edge")
        adjacency[a].append(b)
        adjacency[b].append(a)
        spliced.append((v, a, b))
    return spliced


def _renumber(
    leaves: Sequence[int], adjacency: Mapping[int, Sequence[int]]
) -> Tuple[TreeTopology, Dict[int, int]]:
    """Renumber internal nodes ``max(leaf)+1..`` in BFS order from the
    smallest of the sorted ``leaves`` over sorted neighbours, and build and
    validate the tree once.  Returns it with the renumbering."""
    order = [leaves[0]]
    seen = {leaves[0]}
    for v in order:  # BFS over a growing list
        for w in sorted(adjacency[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    mapping = {leaf: leaf for leaf in leaves}
    internal = [v for v in order if v not in mapping]
    mapping.update(zip(internal, itertools.count(leaves[-1] + 1)))
    edges = [(mapping[a], mapping[b]) for a, ns in adjacency.items() for b in ns if a < b]
    return TreeTopology(leaves, edges), mapping


def _rebuild(
    leaves: Iterable[int], edges: Iterable[Edge], theta: Optional[Mapping[Edge, float]] = None
) -> Tuple[TreeTopology, Optional[Dict[Edge, float]]]:
    """Bring a tree's edge list to canonical form and build it once.

    Every degree-2 internal node is spliced out (:func:`_splice`; the two
    weights multiply), and internal nodes are renumbered canonically
    (:func:`_renumber`).  Returns the topology and, when ``theta`` is given,
    its weights keyed by the renumbered edges.
    """
    leaves = sorted(set(leaves))
    adjacency: Dict[int, List[int]] = {v: [] for v in leaves}
    for u, v in sorted(edge_key(u, v) for u, v in edges):
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    spliced = _splice(adjacency, set(leaves))
    topology, mapping = _renumber(leaves, adjacency)
    if theta is None:
        return topology, None
    weights = dict(theta)
    for v, a, b in spliced:
        weights[edge_key(a, b)] = weights.pop(edge_key(a, v)) * weights.pop(edge_key(v, b))
    return topology, {edge_key(mapping[u], mapping[v]): w for (u, v), w in weights.items()}


def binary(topology: TreeTopology) -> TreeTopology:
    """Contract every maximal chain of degree-2 internal nodes to one edge."""
    return _rebuild(topology.leaves, topology.edges)[0]


def normalize(tree: WeightedTree) -> WeightedTree:
    """Return a leaf-equivalent tree whose internal nodes all have degree 3.

    Degree-2 chains are contracted into a single edge carrying the product
    of the chain's weights; nodes of degree 4 or more are split apart with
    inserted weight-1 edges.  Neither move changes the leaf distribution.
    """
    if tree.topology.leaf_count < 2:
        raise MalformedTree("normalization needs at least two leaves")
    topology, weights = _rebuild(tree.leaves, tree.topology.edges, tree.theta)
    adjacency = {v: list(ns) for v, ns in topology._adjacency.items()}
    # a split changes only the degrees of the node and of its new node, whose
    # id tops every other, so one pass over the growing id list splits them all
    ids = sorted(adjacency)
    for v in ids:
        if topology.is_leaf(v) or len(adjacency[v]) <= 3:
            continue
        w = ids[-1] + 1
        ids.append(w)
        adjacency[w] = []
        for u in sorted(adjacency[v])[2:]:
            adjacency[v].remove(u)
            adjacency[u].remove(v)
            adjacency[u].append(w)
            adjacency[w].append(u)
            weights[edge_key(u, w)] = weights.pop(edge_key(u, v))
        adjacency[v].append(w)
        adjacency[w].append(v)
        weights[edge_key(v, w)] = 1.0
    new_topology, new_weights = _rebuild(topology.leaves, weights.keys(), weights)
    if not new_topology.is_binary():
        raise MalformedTree("normalization failed to reach internal degree 3")
    return WeightedTree(new_topology, new_weights)


# ---------------------------------------------------------------------------
# correlations and quartets


def correlations(tree: WeightedTree) -> CorrelationVector:
    """Pairwise leaf correlations: the product of edge weights along each path."""
    topo = tree.topology
    labels = topo.leaves
    n = len(labels)
    values = np.zeros(n * (n - 1) // 2)
    pos = {lab: k for k, lab in enumerate(labels)}
    for a in labels:
        prod = {a: 1.0}
        queue = deque([a])
        while queue:
            v = queue.popleft()
            for w in topo.neighbors(v):
                if w not in prod:
                    prod[w] = prod[v] * tree.weight(v, w)
                    queue.append(w)
        for b in labels:
            if b > a:
                values[_pair_offset(n, pos[a], pos[b])] = prod[b]
    return CorrelationVector(labels, values)


_SPLIT_ORDER = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


def quartet_split(alpha: CorrelationVector, quartet: Sequence[int]) -> QuartetSplit:
    """Classify four leaves by the largest cross-product of |correlations|.

    Exact ties (within ``TIE_TOLERANCE``) resolve to the lexicographically
    smallest split so the outcome is deterministic.
    """
    if len(set(quartet)) != 4:
        raise UnknownPair(f"quartet needs four distinct leaves, got {tuple(quartet)}")
    q = tuple(sorted(quartet))
    products = [
        abs(alpha.get(q[ia], q[ib])) * abs(alpha.get(q[ic], q[id_]))
        for ia, ib, ic, id_ in _SPLIT_ORDER
    ]
    best = max(products)
    chosen = next(k for k, p in enumerate(products) if p >= best - TIE_TOLERANCE)
    ia, ib, ic, id_ = _SPLIT_ORDER[chosen]
    split = ((q[ia], q[ib]), (q[ic], q[id_]))
    return QuartetSplit(q, split, best - min(products))


def quartet_gap(alpha: CorrelationVector, quartet: Sequence[int]) -> float:
    """Max minus min of the three |correlation| cross-products."""
    return quartet_split(alpha, quartet).gap


def canonical_splits(topology: TreeTopology) -> frozenset:
    """All structurally resolved quartet splits; the canonical form of a topology.

    Two degree-2-free trees on the same leaf set are isomorphic exactly when
    these sets agree.  Quartets meeting at a single node (possible after edge
    contractions) are unresolved and omitted.
    """
    pairs = itertools.combinations(topology.leaves, 2)
    dist = dict(zip(pairs, _path_incidence(topology).sum(axis=1).tolist()))
    splits = set()
    for q in itertools.combinations(topology.leaves, 4):
        sums = [
            dist[q[ia], q[ib]] + dist[q[ic], q[id_]] for ia, ib, ic, id_ in _SPLIT_ORDER
        ]
        smallest = min(sums)
        winners = [k for k, s in enumerate(sums) if s == smallest]
        if len(winners) == 1:
            ia, ib, ic, id_ = _SPLIT_ORDER[winners[0]]
            splits.add(((q[ia], q[ib]), (q[ic], q[id_])))
    return frozenset(splits)


def topologies_equal(a: TreeTopology, b: TreeTopology) -> bool:
    """Leaf-labeled isomorphism via equality of edge bipartition sets, each
    split oriented so the smallest leaf is unmarked."""
    oriented = [{r.tobytes() for r in s ^ s[:, :1]} for s in map(_edge_splits, (a, b))]
    return a.leaves == b.leaves and oriented[0] == oriented[1]


# ---------------------------------------------------------------------------
# closest-relative matching


def closest_relative_matching(topology: TreeTopology, subset: Iterable[int]) -> List[Edge]:
    """Pair up an even leaf subset so the connecting paths are edge-disjoint.

    On a tree with internal degree 3 this pairing exists and is unique; it
    is the one-row view of :func:`_matching_offsets`.
    """
    members = sorted(set(subset))
    for v in members:
        if not topology.is_leaf(v):
            raise UnknownLeaf(f"{v} is not a leaf of the tree")
    if len(members) % 2:
        raise OddSubset(f"subset of size {len(members)} cannot be paired")
    offsets = _matching_offsets(topology, np.isin(topology.leaves, members)[None, :])[0]
    pairs = list(itertools.combinations(topology.leaves, 2))
    return sorted(pairs[k] for k in offsets if k < len(pairs))


def _matching_offsets(topology: TreeTopology, members: np.ndarray) -> np.ndarray:
    """Pair offsets of the edge-disjoint matching of every row's leaf subset.

    ``members`` is a (k, n) boolean matrix over the sorted leaves whose rows
    have even size.  The tree is walked once from its smallest leaf, for all
    rows at a time: each node carries up at most one unpaired leaf, and two
    unpaired leaves meeting at a node are matched.  Row r of the
    (k, max(n // 2, 1)) result lists its pairs in the order they close,
    padded with the one-past-last offset n(n-1)/2.
    """
    if not topology.is_binary():
        raise MalformedTree("matching needs internal degree 3")
    n = topology.leaf_count
    out = np.full((len(members), max(n // 2, 1)), n * (n - 1) // 2, dtype=np.int64)
    col = np.zeros(len(members), dtype=np.int64)
    leaf_pos = {leaf: k for k, leaf in enumerate(topology.leaves)}
    order, parent = _postorder(topology, topology.leaves[0])
    pending: Dict[int, np.ndarray] = {}
    for v in order:
        carried = np.full(len(members), -1, dtype=np.int64)
        if v in leaf_pos:
            carried[members[:, leaf_pos[v]]] = leaf_pos[v]
        for w in topology.neighbors(v):
            if w == parent[v]:
                continue
            lo = np.minimum(carried, pending[w])
            hi = np.maximum(carried, pending.pop(w))
            pair = lo >= 0
            out[pair, col[pair]] = _pair_offset(n, lo[pair], hi[pair])
            col += pair
            carried = np.where(pair, -1, hi)
        pending[v] = carried
    return out


def _postorder(topology: TreeTopology, root: int) -> Tuple[List[int], Dict[int, Optional[int]]]:
    parent: Dict[int, Optional[int]] = {root: None}
    order: List[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in topology.neighbors(v):
            if w not in parent:
                parent[w] = v
                stack.append(w)
    order.reverse()
    return order, parent


# ---------------------------------------------------------------------------
# surgery


class _Cut(NamedTuple):
    """A tree with the edge (u, v) cut, ready for :func:`_attach`: ``u`` hangs
    from the fresh node ``t``, one above every node, and the degree-2 nodes
    the cut leaves are spliced out, each recorded as ``(node, a, b)``."""

    leaves: Tuple[int, ...]
    adjacency: Dict[int, List[int]]
    t: int
    spliced: List[Tuple[int, int, int]]


def _detach(topology: TreeTopology, u: int, v: int) -> _Cut:
    """Cut the edge (u, v) once for any number of pastes of u's side.

    ``v`` must not be a degree-2 node, which the cut would leave dangling.
    """
    if topology.degree(v) == 2:
        raise InvalidCut(f"cutting ({u}, {v}) leaves node {v} dangling")
    t = max(topology._adjacency) + 1
    adjacency = {x: list(ns) for x, ns in topology._adjacency.items()}
    adjacency[u][adjacency[u].index(v)] = t
    adjacency[v].remove(u)
    adjacency[t] = [u]
    return _Cut(topology.leaves, adjacency, t, _splice(adjacency, topology._leaf_set))


def _attach(cut: _Cut, target: Edge) -> TreeTopology:
    """Paste the cut-off side into the middle of ``target``, an edge of the
    uncut tree on v's side: ``t`` joins it, and the result is renumbered and
    built once.  Bringing the target edge through the splices first makes
    this the tree that splicing after the paste would give."""
    r, s = target
    for x, a, b in cut.spliced:  # an edge through x now runs from a to b
        if x == r or x == s:
            r, s = a, b
    adjacency, t = cut.adjacency, cut.t
    pasted = {
        **adjacency,
        t: [*adjacency[t], r, s],
        r: [t if w == s else w for w in adjacency[r]],
        s: [t if w == r else w for w in adjacency[s]],
    }
    return _renumber(cut.leaves, pasted)[0]


def cut_paste(topology: TreeTopology, u: int, v: int, target: Edge) -> TreeTopology:
    """Detach ``u`` (with its side of the tree) from ``v`` and re-attach it
    in the middle of ``target``.

    The edges (u, v) and target = (r, s) are deleted, a fresh node ``t`` is
    added with edges to u, r and s, and degree-2 leftovers are contracted.
    The target edge must lie in v's component once (u, v) is removed, and
    ``v`` must not be a degree-2 node, which the cut would leave dangling.
    """
    if not topology.has_edge(u, v):
        raise InvalidCut(f"({u}, {v}) is not an edge")
    r, s = target
    if not topology.has_edge(r, s):
        raise InvalidCut(f"target ({r}, {s}) is not an edge")
    v_side = component_nodes(topology, v, [(u, v)])
    if r not in v_side or s not in v_side:
        raise InvalidCut(f"target ({r}, {s}) lies in the component being moved")
    return _attach(_detach(topology, u, v), target)


def induced_subtree(topology: TreeTopology, subset: Iterable[int]) -> TreeTopology:
    """The minimal subtree spanning a leaf subset, with degree-2 nodes contracted."""
    members = sorted(set(subset))
    if len(members) < 2:
        raise TooFewLeaves(f"need at least 2 leaves, got {len(members)}")
    for v in members:
        if not topology.is_leaf(v):
            raise UnknownLeaf(f"{v} is not a leaf of the tree")
    member_set = set(members)
    adjacency = {v: set(ns) for v, ns in topology._adjacency.items()}
    # repeatedly strip non-member fringe nodes
    fringe = deque(v for v, ns in adjacency.items() if len(ns) <= 1 and v not in member_set)
    while fringe:
        v = fringe.popleft()
        if v not in adjacency:
            continue
        for w in adjacency.pop(v):
            adjacency[w].discard(v)
            if len(adjacency[w]) <= 1 and w not in member_set:
                fringe.append(w)
    edges = {edge_key(a, b) for a, ns in adjacency.items() for b in ns}
    return _rebuild(members, edges)[0]


def contract_edge(tree, edge: Edge):
    """Contract one edge, merging its endpoints into the lower-numbered one.

    Accepts a :class:`TreeTopology` or a :class:`WeightedTree`; the edge's
    weight (if any) is dropped and all other edges keep theirs.  Leaves may
    not be contracted away.
    """
    weighted = isinstance(tree, WeightedTree)
    topology = tree.topology if weighted else tree
    u, v = edge_key(*edge)
    if not topology.has_edge(u, v):
        raise InvalidCut(f"({u}, {v}) is not an edge")
    if topology.is_leaf(u) or topology.is_leaf(v):
        raise InvalidCut("cannot contract a pendant edge")
    keep, drop = (u, v)
    relabel = lambda x: keep if x == drop else x  # noqa: E731
    edges = {
        edge_key(relabel(a), relabel(b))
        for a, b in topology.edges
        if edge_key(a, b) != (u, v)
    }
    new_topology = TreeTopology(topology.leaves, edges)
    if not weighted:
        return new_topology
    theta = {
        edge_key(relabel(a), relabel(b)): w
        for (a, b), w in tree.theta.items()
        if edge_key(a, b) != (u, v)
    }
    return WeightedTree(new_topology, theta)


# ---------------------------------------------------------------------------
# random instances


def random_topology(n: int, rng: np.random.Generator) -> TreeTopology:
    """Uniform-ish random binary topology grown by splitting random edges."""
    if n < 1:
        raise TooFewLeaves("need at least one leaf")
    if n == 1:
        return TreeTopology([1], [])
    if n == 2:
        return TreeTopology([1, 2], [(1, 2)])
    center = n + 1
    edges = [edge_key(1, center), edge_key(2, center), edge_key(3, center)]
    next_id = n + 2
    for leaf in range(4, n + 1):
        a, b = edges[int(rng.integers(len(edges)))]
        t = next_id
        next_id += 1
        edges.remove(edge_key(a, b))
        edges.extend([edge_key(a, t), edge_key(b, t), edge_key(leaf, t)])
        edges.sort()
    return _rebuild(range(1, n + 1), edges)[0]


def random_weighted_tree(
    n: int,
    rng: np.random.Generator,
    low: float = -1.0,
    high: float = 1.0,
) -> WeightedTree:
    """Random binary topology with i.i.d. uniform edge weights in [low, high]."""
    if not -1.0 <= low <= high <= 1.0:  # NaN fails the test too
        raise BadParameter(f"need -1 <= low <= high <= 1, got low={low}, high={high}")
    topology = random_topology(n, rng)
    draws = rng.uniform(low, high, size=len(topology.edges))
    return WeightedTree(topology, dict(zip(topology.edges, draws)))
