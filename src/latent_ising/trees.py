"""Unrooted leaf-labeled trees and forests: topology, surgery, and path correlations.

A tree Ising model lives on an unrooted tree whose observed nodes are the
leaves.  A forest, independent trees on disjoint leaf sets, is the output of
the unknown-topology learner and the reference of identity testing; a tree is
read as the one-component forest (``as_forest``).  This module holds the
topology, weighted-tree and forest types plus the purely combinatorial
operations: degree normalization, path queries, correlations of a tree or a
forest as path products of edge weights (0 between components), quartet
classification, cut-and-paste surgery,
induced subtrees, and the edge-disjoint pair matching.  The matching is one
walk over per-leaf membership arrays that broadcast together (the leaf axes
of the ``(2,) * n`` table), yielding at each node's last child one flat index,
``mine * (n + 1) + child``, of the two leaf positions that meet there (``n``
for none), a pair where both are leaves.  Every parent-pointer traversal
reads one walk over an adjacency mapping,
``_postorder``; a topology keeps its validation's from its smallest leaf by
position, ``_walk = (order, row, up, first, leaf_rows)``: ``order[k]`` is node
k, the root last, ``row`` maps a node to its position, ``up[k]`` is the
parent's, ``order[first[k]:k + 1]`` are the nodes below node k and
``leaf_rows[i]`` is sorted leaf i's.  ``path_nodes``, the split table, the
path products, the matching, marginalization, the Newick writer (the four
fold each node into its parent, in lists by position), the sampler (root
first) and cut-and-paste's target check (the subtree slice at the cut edge's
lower end) read these and derive none.  Batched path questions (which edges
a pair's path uses, whether two topologies agree, which leaves lie beyond an
edge, through ``_side``, and which edges an induced subtree keeps) are
answered from one table of edge bipartitions per topology, ``_edge_splits``:
``_beyond`` over every edge, the one broadcast of subtree slices that
interpolation reads on one path's edges.  Every path product (correlations,
interpolation's signal peaks) comes from the leaf-to-node products,
``_path_products``.  One loop walks on its own: ``_renumber``'s BFS, whose
order is the canonical numbering.  A tree reaches canonical form through two
steps, each written once:
``_splice`` splices out degree-2 nodes, and ``_renumber`` renumbers internal
nodes canonically and builds and validates the tree once.  ``_rebuild`` is
the two in a row, and every surgery but cut-and-paste ends in it.
Cut-and-paste splits them: ``_detach`` cuts the moved side off and splices
once, sharing every neighbour tuple of the topology that neither touches, and
each ``_attach`` pastes it onto one target edge and returns the tree with its
renumbering, so many pastes of one cut share it.

All values are immutable after construction: no attribute can be rebound or
deleted, edge weights are a read-only mapping, arrays are read-only, and a
pickled model is rebuilt through its constructor, so it is validated again.
Every operation returns a new object, so instances are safe to share across
threads.  What is derived from a value may be kept on it, filled on first read
by one function each and never changed afterwards, so concurrent readers at
worst build equal values: a topology's split table (``_splits``, by
``_edge_splits``), and a weighted tree's or forest's correlations (``_alpha``,
by ``correlations``) and dense leaf table (``_table``, by
``distribution._model_table``).  A pickled or copied value keeps none of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadParameter,
    InvalidCut,
    LeafSetMismatch,
    MalformedTree,
    OddSubset,
    TooFewLeaves,
    UnknownLeaf,
    UnknownPair,
)

Edge = Tuple[int, int]
_set = object.__setattr__  # binds a slot of a ``_ReadOnly`` value, in its constructor

#: relative tolerance under which a cross-product ties with the largest one
TIE_TOLERANCE = 1e-12


def edge_key(u: int, v: int) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class _ReadOnly:
    """Slots that only the constructor binds, through ``_set``."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class TreeTopology(_ReadOnly):
    """Unrooted tree over labeled leaves.

    Leaves carry external integer labels (a full model uses ``1..n``);
    internal nodes use identifiers strictly above every leaf label.  A
    one-leaf topology (a single isolated node) is allowed so that forests
    can carry singleton components.

    Raises :class:`MalformedTree` unless the edge set forms a connected,
    acyclic graph in which every leaf has degree exactly 1 and no internal
    node dangles with degree < 2.
    """

    __slots__ = ("leaves", "edges", "_adjacency", "_leaf_set", "_walk", "_splits")

    def __init__(self, leaves: Iterable[int], edges: Iterable[Edge]):
        _set(self, "leaves", tuple(sorted(set(leaves))))
        if not self.leaves:
            raise MalformedTree("a tree needs at least one leaf")
        keyed = [(u, v) if u < v else (v, u) for u, v in edges]  # edge_key, inlined
        keyed.sort()
        _set(self, "edges", tuple(keyed))
        _set(self, "_leaf_set", frozenset(self.leaves))

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
        _set(self, "_adjacency", {v: tuple(ns) for v, ns in adjacency.items()})
        _set(self, "_splits", None)  # filled by _edge_splits
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self) -> None:
        nodes = self.nodes
        order, parent = _postorder(self._adjacency, self.leaves[0])
        if len(self.leaves) == 1 and self.edges:
            raise MalformedTree("one-leaf tree must have no edges")
        if len(self.edges) != len(nodes) - 1:
            raise MalformedTree("edge count does not match a tree")
        if len(order) != len(nodes):
            raise MalformedTree("graph is disconnected")
        max_leaf = self.leaves[-1]
        for v in nodes:
            deg = len(self._adjacency[v])
            if v in self._leaf_set:
                if deg != 1 and self.edges:  # a lone leaf has no neighbour
                    raise MalformedTree(f"leaf {v} has degree {deg}")
            elif v <= max_leaf:
                raise MalformedTree(f"internal node {v} collides with leaf labels")
            elif deg < 2:
                raise MalformedTree(f"internal node {v} dangles with degree {deg}")
        row = dict(zip(order, range(len(order))))
        up = [row[parent[v]] for v in order[:-1]]  # the root comes last
        first = list(range(len(order)))
        for k, p in enumerate(up):  # a node's subtree ends at it, after its children's
            first[p] = first[k] if first[k] < first[p] else first[p]
        _set(self, "_walk", (order, row, up, first, [row[leaf] for leaf in self.leaves]))

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

    def __reduce__(self):
        return TreeTopology, (self.leaves, self.edges)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TreeTopology(leaves={self.leaves}, edges={list(self.edges)})"


class WeightedTree(_ReadOnly):
    """A topology together with one weight in [-1, 1] per edge, read-only.

    Once read, its correlations and its dense leaf table (2^n float64, at
    most 8 MB at the 20-leaf cap) are kept on it for as long as it lives.
    """

    __slots__ = ("topology", "theta", "_alpha", "_table")

    def __init__(self, topology: TreeTopology, theta: Mapping[Edge, float]):
        _set(self, "topology", topology)
        _set(self, "_alpha", None)  # filled by correlations
        _set(self, "_table", None)  # filled by distribution._model_table
        normalized = {((u, v) if u < v else (v, u)): float(w) for (u, v), w in theta.items()}
        for e in topology.edges:
            if e not in normalized:
                raise MalformedTree(f"edge {e} has no weight")
        if len(normalized) != len(topology.edges):
            raise MalformedTree("weight map mentions edges not in the tree")
        clipped = {e: normalized[e] for e in topology.edges}
        for e, w in normalized.items():
            if not abs(w) <= 1.0:  # only the tolerated overshoot is clamped
                if not abs(w) <= 1.0 + 1e-12:  # NaN fails this too
                    raise MalformedTree(f"weight {w} on edge {e} outside [-1, 1]")
                clipped[e] = 1.0 if w > 0 else -1.0
        _set(self, "theta", MappingProxyType(clipped))

    def __reduce__(self):
        return WeightedTree, (self.topology, dict(self.theta))

    def weight(self, u: int, v: int) -> float:
        return self.theta[edge_key(u, v)]

    @property
    def leaves(self) -> Tuple[int, ...]:
        return self.topology.leaves

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeightedTree({self.topology!r}, {dict(self.theta)!r})"


class WeightedForest(_ReadOnly):
    """Disjoint weighted trees; component leaf sets partition the label set.

    Like a tree, it keeps its correlations and its dense leaf table once read.
    """

    __slots__ = ("components", "_alpha", "_table")

    def __init__(self, components: Iterable[WeightedTree]):
        comps = sorted(components, key=lambda t: t.topology.leaves[0])
        seen: set = set()
        for comp in comps:
            if not seen.isdisjoint(comp.topology.leaves):
                overlap = sorted(seen.intersection(comp.topology.leaves))
                raise LeafSetMismatch(f"leaves {overlap} appear in two components")
            seen.update(comp.topology.leaves)
        if not comps:
            raise LeafSetMismatch("a forest needs at least one component")
        _set(self, "components", tuple(comps))
        _set(self, "_alpha", None)  # filled by correlations
        _set(self, "_table", None)  # filled by distribution._model_table

    def __reduce__(self):
        return WeightedForest, (self.components,)

    @property
    def leaves(self) -> Tuple[int, ...]:
        return tuple(sorted(itertools.chain.from_iterable(c.topology.leaves for c in self.components)))

    @property
    def n(self) -> int:
        return len(self.leaves)

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeightedForest({list(self.components)!r})"


def as_forest(model) -> WeightedForest:
    """Wrap a single weighted tree as a one-component forest."""
    if isinstance(model, WeightedForest):
        return model
    if isinstance(model, WeightedTree):
        return WeightedForest([model])
    raise BadParameter(f"cannot interpret {type(model).__name__} as a forest")


class CorrelationVector(_ReadOnly):
    """Pairwise leaf correlations, one value in [-1, 1] per unordered pair.

    The vector may hold true path products, empirical estimates, or an
    arbitrary point of the cube; nothing here assumes it is realizable on a
    tree.
    """

    __slots__ = ("labels", "values", "_pos")

    def __init__(self, labels: Iterable[int], values: np.ndarray):
        _set(self, "labels", tuple(sorted(labels)))
        n = len(self.labels)
        values = np.asarray(values, dtype=float)
        if values.shape != (n * (n - 1) // 2,):
            raise UnknownPair(
                f"need {n * (n - 1) // 2} pair values for {n} leaves, got {values.shape}"
            )
        if not (np.abs(values) <= 1.0 + 1e-9).all():  # NaN fails the test too
            raise UnknownPair("correlation outside [-1, 1]")
        _set(self, "values", values.clip(-1.0, 1.0))
        self.values.flags.writeable = False
        _set(self, "_pos", {lab: k for k, lab in enumerate(self.labels)})
        if len(self._pos) != n:
            raise UnknownPair(f"repeated leaf labels in {self.labels}")

    def __reduce__(self):
        return CorrelationVector, (self.labels, self.values)

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
        for (i, j), value in zip(itertools.combinations(self.labels, 2), self.values.tolist()):
            yield i, j, value

    def restrict(self, leaves: Iterable[int]) -> "CorrelationVector":
        """The vector over a subset of the labels, in its own pair order."""
        leaves = tuple(sorted(leaves))
        if leaves == self.labels:
            return self
        missing = [v for v in leaves if v not in self._pos]
        if missing:
            raise UnknownLeaf(f"leaf {missing[0]} not covered by this vector")
        pos = np.array([self._pos[v] for v in leaves], dtype=np.intp)
        a, b = _pair_index(len(leaves))
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
        return float(np.max(np.abs(self.values - other.values), initial=0.0))


def _pair_offset(n: int, a: int, b: int) -> int:
    # positions 0 <= a < b < n in lexicographic pair order
    return a * (2 * n - a - 1) // 2 + (b - a - 1)


def _pair_index(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(a, b)``: every pair of positions ``a < b < n`` in the vector's pair
    order, the :func:`_pair_offset` order; the same arrays and dtype as
    numpy's strict upper-triangle indices, at a fraction of their cost."""
    r = np.arange(n)
    return np.less.outer(r, r).nonzero()


@dataclass(frozen=True)
class QuartetSplit:
    """The induced pairing of four leaves plus its product gap."""

    quartet: Tuple[int, int, int, int]
    split: Tuple[Edge, Edge]
    gap: float


# ---------------------------------------------------------------------------
# path queries


def path_nodes(topology: TreeTopology, a: int, b: int) -> List[int]:
    """Node sequence of the unique simple path from a to b (inclusive), read
    off the topology's walk: an ancestor comes after every node below it, so
    the end at the smaller position climbs until the two meet."""
    if a == b:
        raise UnknownPair(f"path endpoints coincide: {a}")
    if a not in topology._adjacency:
        raise UnknownLeaf(f"node {a} not in tree")
    if b not in topology._adjacency:
        raise UnknownLeaf(f"node {b} not in tree")
    order, row, up, _, _ = topology._walk
    head, tail = [row[a]], [row[b]]  # positions from a and from b, up to where they meet
    while head[-1] != tail[-1]:
        lower = head if head[-1] < tail[-1] else tail
        lower.append(up[lower[-1]])
    return [order[k] for k in head + tail[-2::-1]]


def path(topology: TreeTopology, i: int, j: int) -> List[Edge]:
    """Ordered edge list of the unique path between two leaves."""
    nodes = path_nodes(topology, i, j)
    return [edge_key(u, v) for u, v in zip(nodes, nodes[1:])]


def diameter(topology: TreeTopology) -> int:
    """Longest leaf-to-leaf path length in edges (0 for a single leaf)."""
    up = topology._walk[2]
    down = [0] * (len(up) + 1)  # longest path down to a leaf, by walk position
    best = 0
    for k, p in enumerate(up):  # k's path joins the longest below p so far
        best = max(best, down[p] + down[k] + 1)
        down[p] = max(down[p], down[k] + 1)
    return best


def _beyond(topology: TreeTopology, ends: np.ndarray) -> np.ndarray:
    """(k, n) boolean: row q marks the sorted leaves on the second end's side
    of the edge between the walk positions ``ends[q]``, read off the walk's
    subtree slices in one broadcast."""
    first, leaf_rows = map(np.asarray, topology._walk[3:])
    child = ends.min(axis=1)[:, None]  # the end away from the root, which the walk puts first
    below = (first[child] <= leaf_rows) & (leaf_rows <= child)
    return below ^ (ends[:, :1] == child)  # the first end below: the second's side is the rest


def _edge_splits(topology: TreeTopology) -> np.ndarray:
    """(|E|, n) read-only boolean: row k marks the sorted leaves on v's side of
    ``topology.edges[k] = (u, v)``, from :func:`_beyond` over every edge.
    Built on first read and kept on the topology."""
    if topology._splits is not None:
        return topology._splits
    row = topology._walk[1]
    ends = np.array([(row[u], row[v]) for u, v in topology.edges], dtype=np.intp).reshape(-1, 2)
    splits = _beyond(topology, ends)
    splits.flags.writeable = False
    _set(topology, "_splits", splits)
    return splits


def _side(topology: TreeTopology, a: int, b: int) -> np.ndarray:
    """(n,) boolean mask of the sorted leaves on b's side of the edge (a, b),
    read from :func:`_edge_splits`, whose row marks the side of the edge's
    larger endpoint."""
    row = _edge_splits(topology)[topology.edges.index(edge_key(a, b))]
    return row if b > a else ~row


def _path_incidence(topology: TreeTopology) -> np.ndarray:
    """(n(n-1)/2, |E|) boolean: row p marks the edges that separate leaf pair
    p, which are its path edges; pairs come in :func:`_pair_offset` order."""
    splits = _edge_splits(topology)
    a, b = _pair_index(topology.leaf_count)
    return (splits[:, a] != splits[:, b]).T


# ---------------------------------------------------------------------------
# normalization


def _splice(adjacency: Dict[int, Sequence[int]], leaf_set) -> List[Tuple[int, int, int]]:
    """Splice out every degree-2 internal node of ``adjacency``, in place.

    A splice leaves every other degree alone, so one ascending pass finds
    them all; the two it joins get fresh lists.  Returns each spliced node
    with the two neighbours it joined, ``(node, a, b)``, in splice order.
    """
    spliced = []
    for v in sorted(adjacency):
        if v in leaf_set or len(adjacency[v]) != 2:
            continue
        a, b = adjacency.pop(v)
        if b in adjacency[a]:
            raise MalformedTree("contraction produced a parallel edge")
        adjacency[a] = [w for w in adjacency[a] if w != v] + [b]
        adjacency[b] = [w for w in adjacency[b] if w != v] + [a]
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
    if topology.is_binary():  # nothing to split, and renumbering a canonical tree is the identity
        return WeightedTree(topology, weights)
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


def _path_products(tree: WeightedTree) -> np.ndarray:
    """The one path-product walk: ``products[k, i]`` is the product of the
    weights from sorted leaf i to the node at walk position k, multiplied from
    the leaf.  An upward pass fills each row at the nodes below it, positions
    ``first[k] .. k`` of the topology's walk, and a downward pass fills the rest."""
    order, _, up, first, leaf_rows = tree.topology._walk
    weight = [tree.weight(v, order[p]) for v, p in zip(order, up)]
    products = np.ones((len(order), len(order)))  # [r, c]: from order[c] to order[r]
    for k, u in enumerate(up):
        products[u, first[k] : k + 1] = products[k, first[k] : k + 1] * weight[k]
    for k in reversed(range(len(up))):
        products[k, : first[k]] = products[up[k], : first[k]] * weight[k]
        products[k, k + 1 :] = products[up[k], k + 1 :] * weight[k]
    return products[:, leaf_rows]


def correlations(model) -> CorrelationVector:
    """Pairwise leaf correlations of a weighted tree or forest: each path's
    weight product, from its smaller leaf; pairs across components are 0.

    Computed on first read and kept on ``model`` itself as ``_alpha``, so every
    later call returns the same read-only vector."""
    forest = as_forest(model)
    if model._alpha is not None:
        return model._alpha
    labels = forest.leaves
    dense = np.zeros((len(labels), len(labels)))  # [a, b]: from leaf a to leaf b
    for tree in forest.components:
        at = np.searchsorted(labels, tree.leaves)
        dense[np.ix_(at, at)] = _path_products(tree)[tree.topology._walk[4]].T
    alpha = CorrelationVector(labels, dense[_pair_index(len(labels))])
    _set(model, "_alpha", alpha)
    return alpha


_SPLIT_ORDER = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


def _pairing(alpha: CorrelationVector, q: Sequence[int]) -> Tuple[List[float], int]:
    """The three |correlation| cross-products of ``q`` in ``_SPLIT_ORDER``, and
    the winning pairing: the first whose product is within the relative
    ``TIE_TOLERANCE`` of the largest (the first when all are 0)."""
    products = [
        abs(alpha.get(q[a], q[b])) * abs(alpha.get(q[c], q[d])) for a, b, c, d in _SPLIT_ORDER
    ]
    best = max(products)
    return products, next(k for k, p in enumerate(products) if p >= best * (1.0 - TIE_TOLERANCE))


def quartet_split(alpha: CorrelationVector, quartet: Sequence[int]) -> QuartetSplit:
    """Classify four leaves by the largest cross-product of |correlations|.

    Products within the relative ``TIE_TOLERANCE`` of the largest tie, and
    ties resolve to the lexicographically smallest split, so the outcome is
    deterministic and does not change when every correlation is scaled.
    """
    if len(set(quartet)) != 4:
        raise UnknownPair(f"quartet needs four distinct leaves, got {tuple(quartet)}")
    q = tuple(sorted(quartet))
    products, chosen = _pairing(alpha, q)
    ia, ib, ic, id_ = _SPLIT_ORDER[chosen]
    split = ((q[ia], q[ib]), (q[ic], q[id_]))
    return QuartetSplit(q, split, max(products) - min(products))


def quartet_gap(alpha: CorrelationVector, quartet: Sequence[int]) -> float:
    """Max minus min of the three |correlation| cross-products."""
    return quartet_split(alpha, quartet).gap


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
    is the 0-d reading of :func:`_matching_pairs`, each flat index decoded.
    """
    members = sorted(set(subset))
    for v in members:
        if not topology.is_leaf(v):
            raise UnknownLeaf(f"{v} is not a leaf of the tree")
    if len(members) % 2:
        raise OddSubset(f"subset of size {len(members)} cannot be paired")
    leaves, n = topology.leaves, topology.leaf_count
    walk = _matching_pairs(topology, np.isin(leaves, members))
    pairs = (divmod(index, n + 1) for index in walk)
    return sorted((leaves[min(a, b)], leaves[max(a, b)]) for a, b in pairs if a < n and b < n)


def _matching_pairs(
    topology: TreeTopology, members: Sequence[np.ndarray]
) -> Iterable[np.ndarray]:
    """The edge-disjoint matching of every leaf subset, as each node meets its
    last child.

    ``members[k]`` says if the ``k``-th smallest leaf is in the subset; the n
    booleans broadcast together, one subset per entry.  The topology's walk
    is read once by position for all subsets: each node carries the position
    of at most one unpaired leaf, ``n`` for none, folded into its parent's (at
    ``up[k]``) as the walk finishes the node.  A first child closes nothing
    and is stored; at a node's last child, which the walk places directly
    before it, this yields the flat index ``mine * (n + 1) + child`` of the
    two carried positions, a pair closing wherever both are below ``n``, and
    carries on what the ravelled ``meet`` table holds there: ``n`` where a
    pair closes or neither carries a leaf, else the one carried.  So pairs
    come in closing order.
    """
    if not topology.is_binary():
        raise MalformedTree("matching needs internal degree 3")
    order, _, up, _, leaf_rows = topology._walk
    n = len(leaf_rows)
    meet = np.full((n + 1, n + 1), n)
    meet[n, :n] = meet[:n, n] = np.arange(n)
    carried: List[Optional[np.ndarray]] = [n] * len(order)  # by walk position
    for k, r in enumerate(leaf_rows):
        carried[r] = np.where(members[k], k, n)
    for k, p in enumerate(up):
        child, carried[k] = carried[k], None  # folded into its parent's
        if k + 1 < p:  # a first child: its parent carries nothing yet
            carried[p] = child
        else:
            index = carried[p] * (n + 1) + child
            carried[p] = child = None  # the caller's gather holds only the index
            yield index
            carried[p] = meet.take(index)


def _postorder(
    adjacency: Mapping[int, Sequence[int]], root: int
) -> Tuple[List[int], Dict[int, Optional[int]]]:
    """The one parent-pointer walk: every node reachable from ``root``, each
    after all the nodes below it (so ``root`` comes last), and each node's
    parent, ``None`` at the root."""
    parent: Dict[int, Optional[int]] = {root: None}
    order: List[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adjacency[v]:
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
    the cut leaves are spliced out, each recorded as ``(node, a, b)``.  A node
    neither touches keeps the topology's own tuple: nothing writes through."""

    leaves: Tuple[int, ...]
    adjacency: Dict[int, Sequence[int]]
    t: int
    spliced: List[Tuple[int, int, int]]


def _detach(topology: TreeTopology, u: int, v: int) -> _Cut:
    """Cut the edge (u, v) once for any number of pastes of u's side.

    ``v`` must not be a degree-2 node, which the cut would leave dangling.
    """
    if topology.degree(v) == 2:
        raise InvalidCut(f"cutting ({u}, {v}) leaves node {v} dangling")
    t = max(topology._adjacency) + 1
    adjacency = dict(topology._adjacency)
    adjacency[u] = [t if w == v else w for w in adjacency[u]]
    adjacency[v] = [w for w in adjacency[v] if w != u]
    adjacency[t] = [u]
    return _Cut(topology.leaves, adjacency, t, _splice(adjacency, topology._leaf_set))


def _attach(cut: _Cut, target: Edge) -> Tuple[TreeTopology, Dict[int, int]]:
    """Paste the cut-off side into the middle of ``target``, an edge of the
    uncut tree on v's side: ``t`` joins it, and the result is renumbered and
    built once.  Bringing the target edge through the splices first makes
    this the tree that splicing after the paste would give.  Returns the tree
    with the renumbering of the cut's nodes, ``t`` included."""
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
    return _renumber(cut.leaves, pasted)


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
    _, row, _, first, _ = topology._walk
    low = min(row[u], row[v])  # the lower end of (u, v): the nodes below it are first[low]..low
    # v's side is that slice when v is the lower end, and the rest of the walk when u is
    if not all((first[low] <= row[x] <= low) == (low == row[v]) for x in (r, s)):
        raise InvalidCut(f"target ({r}, {s}) lies in the component being moved")
    return _attach(_detach(topology, u, v), target)[0]


def induced_subtree(topology: TreeTopology, subset: Iterable[int]) -> TreeTopology:
    """The minimal subtree spanning a leaf subset, with degree-2 nodes contracted."""
    members = sorted(set(subset))
    if len(members) < 2:
        raise TooFewLeaves(f"need at least 2 leaves, got {len(members)}")
    for v in members:
        if not topology.is_leaf(v):
            raise UnknownLeaf(f"{v} is not a leaf of the tree")
    # the spanning subtree's edges are those with members on both sides
    sides = _edge_splits(topology)[:, np.isin(topology.leaves, members)]
    keep = sides.any(axis=1) & ~sides.all(axis=1)
    return _rebuild(members, itertools.compress(topology.edges, keep))[0]


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
    # the only path for n < 3: the growth loop starts from a 3-leaf star
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
