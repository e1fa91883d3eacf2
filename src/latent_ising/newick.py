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

import re
from typing import Dict, List, Tuple

from .errors import MalformedTree
from .forest import WeightedForest
from .trees import TreeTopology, WeightedTree, _postorder, _rebuild, edge_key


def serialize_tree(tree: WeightedTree) -> str:
    topology = tree.topology
    leaves = topology.leaves
    if len(leaves) == 1:
        return f"{leaves[0]};"
    root = topology.neighbors(leaves[0])[0]
    if topology.is_leaf(root):  # a single edge; longer chains render generically
        return f"({leaves[0]}:{tree.weight(leaves[0], root)!r},{root}:1.0);"

    # bottom-up, each subtree keeps its smallest leaf, which orders it among
    # its siblings, and its text
    order, parent = _postorder(topology._adjacency, root)
    low: Dict[int, int] = {}
    text: Dict[int, str] = {}
    for v in order:
        weight = "" if parent[v] is None else f":{tree.weight(parent[v], v)!r}"
        if topology.is_leaf(v):
            low[v], text[v] = v, f"{v}{weight}"
            continue
        kids = sorted((w for w in topology.neighbors(v) if w != parent[v]), key=low.__getitem__)
        low[v] = low[kids[0]]
        text[v] = "(" + ",".join(text.pop(w) for w in kids) + f"){weight}"
    return text[root] + ";"


#: whitespace between two characters of one label or weight
_SPLIT_TOKEN = re.compile(r"[0-9.+\-eE]\s+[0-9.+\-eE]")


def parse_tree(text: str) -> WeightedTree:
    """Parse one Newick string into a weighted tree.

    Degree-2 anchor nodes are contracted (their two weights multiply) so a
    rooted rendering round-trips to the same unrooted tree.  Nodes of degree
    4 or more are kept as-is.
    """
    split = _SPLIT_TOKEN.search(text)
    if split:
        raise MalformedTree(f"whitespace inside a label or weight at position {split.start() + 1}")
    text = "".join(text.split())  # whitespace between tokens is dropped
    if not text.endswith(";"):
        raise MalformedTree("Newick string must end with ';'")
    parser = _Parser(text[:-1])
    edges: List[Tuple[int, int, float]] = []
    leaves: List[int] = []
    groups: List[int] = []  # the open groups, innermost last, as placeholder ids
    opened = 0  # placeholder ids are negative, relabeled below
    while True:
        if parser.peek() == "(":
            parser.expect("(")
            opened += 1
            groups.append(-opened)
            continue
        node = parser.read_label()
        leaves.append(node)
        weight = parser.maybe_weight()
        while groups:  # close every group that ends here
            edges.append((groups[-1], node, weight))
            if parser.peek() == ",":
                break
            parser.expect(")")
            node, weight = groups.pop(), parser.maybe_weight()
        if not groups:
            break
        parser.expect(",")
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
