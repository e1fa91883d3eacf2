"""Extended-Newick text format for weighted unrooted trees and forests.

Leaves are integer labels; the value after a colon is the edge weight of
the branch above, which may be negative, e.g.::

    ((1:0.5,2:0.5):0.8,(3:0.5,4:0.5):1.0);

Semantics are unrooted: the outermost group is an arbitrary internal
anchor whose own colon-weight is absent or ignored, and anchor nodes of
degree 2 are contracted on parsing (weights multiply).  A forest is one
tree per line; a singleton component is a bare label line like ``7;``.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import MalformedTree
from .forest import WeightedForest
from .trees import TreeTopology, WeightedTree, _rebuild, edge_key


def serialize_tree(tree: WeightedTree) -> str:
    topology = tree.topology
    leaves = topology.leaves
    if len(leaves) == 1:
        return f"{leaves[0]};"
    root = topology.neighbors(leaves[0])[0]
    if topology.is_leaf(root):  # a single edge; longer chains render generically
        return f"({leaves[0]}:{tree.weight(leaves[0], root)!r},{root}:1.0);"

    def min_leaf(v: int, parent: int) -> int:
        if topology.is_leaf(v):
            return v
        return min(min_leaf(w, v) for w in topology.neighbors(v) if w != parent)

    def render(v: int, parent: int) -> str:
        theta = tree.weight(parent, v)
        if topology.is_leaf(v):
            return f"{v}:{theta!r}"
        kids = sorted(
            (w for w in topology.neighbors(v) if w != parent),
            key=lambda w: min_leaf(w, v),
        )
        inner = ",".join(render(w, v) for w in kids)
        return f"({inner}):{theta!r}"

    kids = sorted(topology.neighbors(root), key=lambda w: min_leaf(w, root))
    return "(" + ",".join(render(w, root) for w in kids) + ");"


def parse_tree(text: str) -> WeightedTree:
    """Parse one Newick string into a weighted tree.

    Degree-2 anchor nodes are contracted (their two weights multiply) so a
    rooted rendering round-trips to the same unrooted tree.  Nodes of degree
    4 or more are kept as-is.
    """
    text = "".join(text.split())  # labels and weights never contain whitespace
    if not text.endswith(";"):
        raise MalformedTree("Newick string must end with ';'")
    parser = _Parser(text[:-1])
    edges: List[Tuple[int, int, float]] = []
    leaves: List[int] = []
    next_internal = [0]  # placeholder ids (negative), relabeled below

    def fresh() -> int:
        next_internal[0] -= 1
        return next_internal[0]

    def parse_node() -> Tuple[int, float]:
        if parser.peek() == "(":
            parser.expect("(")
            me = fresh()
            while True:
                child, weight = parse_node()
                edges.append((me, child, weight))
                if parser.peek() == ",":
                    parser.expect(",")
                    continue
                break
            parser.expect(")")
            weight = parser.maybe_weight()
            return me, weight
        label = parser.read_label()
        leaves.append(label)
        return label, parser.maybe_weight()

    root, _ = parse_node()
    if not parser.done():
        raise MalformedTree(f"trailing characters near position {parser.pos}")
    if not leaves:
        raise MalformedTree("no leaves found")
    if len(set(leaves)) != len(leaves):
        raise MalformedTree("duplicate leaf label")
    if len(leaves) == 1:
        return WeightedTree(TreeTopology(leaves, []), {})
    # relabel placeholder internals above the largest leaf
    base = max(leaves)
    mapping = {}
    for u, v, _ in edges:
        for node in (u, v):
            if node < 0 and node not in mapping:
                base += 1
                mapping[node] = base
    theta = {}
    topo_edges = []
    for u, v, w in edges:
        a = mapping.get(u, u)
        b = mapping.get(v, v)
        topo_edges.append(edge_key(a, b))
        theta[edge_key(a, b)] = w
    raw = TreeTopology(leaves, topo_edges)  # the parsed graph is outside input
    return WeightedTree(*_rebuild(raw.leaves, raw.edges, theta))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise MalformedTree(f"expected '{ch}' at position {self.pos}")
        self.pos += 1

    def done(self) -> bool:
        return self.pos >= len(self.text)

    def read_label(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise MalformedTree(f"expected a leaf label at position {self.pos}")
        return int(self.text[start:self.pos])

    def maybe_weight(self) -> float:
        if self.peek() != ":":
            return 1.0
        self.pos += 1
        start = self.pos
        while self.peek() and (self.peek().isdigit() or self.peek() in "+-.eE"):
            self.pos += 1
        try:
            return float(self.text[start:self.pos])
        except ValueError:
            raise MalformedTree(f"bad weight at position {start}") from None


def serialize_forest(forest: WeightedForest) -> str:
    return "\n".join(serialize_tree(c) for c in forest.components) + "\n"


def parse_forest(text: str) -> WeightedForest:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedTree("empty forest file")
    return WeightedForest([parse_tree(ln) for ln in lines])


def parse_model(text: str):
    """Parse a file as a single tree when possible, otherwise as a forest."""
    forest = parse_forest(text)
    if len(forest.components) == 1:
        return forest.components[0]
    return forest
