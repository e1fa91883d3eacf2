"""Extended-Newick text format for weighted unrooted trees and forests.

Leaves are integer labels; the value after a colon is the edge weight of
the branch above, which may be negative, e.g.::

    ((1:0.5,2:0.5):0.8,(3:0.5,4:0.5):1.0);

Semantics are unrooted: the outermost group is an arbitrary internal
anchor whose own colon-weight is absent or ignored, and anchor nodes of
degree 2 are contracted on parsing (weights multiply).  A forest is one
tree per line; a singleton component is a bare label line like ``7;``.

Reading splits the whitespace-free text into tokens with one pattern and
walks them with a stack of open groups; the edges it collects always form a
tree, built and validated once in canonical form.  Writing folds the
topology's kept walk bottom-up, rooted at the smallest leaf's neighbour.
Neither recurses, so both work at any nesting depth.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .errors import MalformedTree
from .forest import WeightedForest
from .trees import WeightedTree, _rebuild, edge_key


def serialize_tree(tree: WeightedTree) -> str:
    topology = tree.topology
    leaves = topology.leaves
    if len(leaves) == 1:
        return f"{leaves[0]};"
    order, _, up, _, _ = topology._walk
    root = order[-2]  # the smallest leaf's neighbour, which the walk puts right before it
    if topology.is_leaf(root):  # a single edge; longer chains render generically
        return f"({leaves[0]}:{tree.weight(leaves[0], root)!r},{root}:1.0);"

    # the walk folded bottom-up, rooted at ``root``: each finished node hands
    # its parent its smallest leaf, which orders it among its siblings, and
    # its text; the walk's own root, the smallest leaf, is ``root``'s child
    done: List[List[Tuple[int, str]]] = [[] for _ in order]  # children, by walk position
    done[-2].append((leaves[0], f"{leaves[0]}:{tree.weight(leaves[0], root)!r}"))
    for k, p in enumerate(up):
        v = order[k]
        weight = f":{tree.weight(order[p], v)!r}" if v != root else ""
        if topology.is_leaf(v):
            done[p].append((v, f"{v}{weight}"))
            continue
        kids = sorted(done[k])
        done[p].append((kids[0][0], "(" + ",".join(text for _, text in kids) + f"){weight}"))
    return done[-1][0][1] + ";"


#: whitespace between two characters of one label or weight
_SPLIT_TOKEN = re.compile(r"[0-9.+\-eE]\s+[0-9.+\-eE]")
#: one token of whitespace-free Newick: a bracket or comma, a leaf label, a
#: colon and its weight, or any other single character
_TOKEN = re.compile(r"[(),]|\d+|:[0-9.+\-eE]*|.")


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
    body = text[:-1]
    # (position, token) pairs; the empty token marks the end
    tokens = [(m.start(), m.group()) for m in _TOKEN.finditer(body)] + [(len(body), "")]
    edges: List[Tuple[int, int, float]] = []
    leaves: List[int] = []
    groups: List[int] = []  # the open groups, innermost last, as placeholder ids
    i = 0
    while True:
        pos, token = tokens[i]
        if token == "(":
            groups.append(-i - 1)  # placeholder ids are negative, relabeled below
            i += 1
            continue
        if not token.isdecimal():
            raise MalformedTree(f"expected a leaf label at position {pos}")
        node = int(token)
        leaves.append(node)
        weight, i = _weight(tokens, i + 1)
        while groups:  # close every group that ends here
            edges.append((groups[-1], node, weight))
            pos, token = tokens[i]
            if token == ",":
                break
            if token != ")":
                raise MalformedTree(f"expected ')' at position {pos}")
            node = groups.pop()
            weight, i = _weight(tokens, i + 1)
        if not groups:
            break
        i += 1  # the comma
    if i < len(tokens) - 1:
        raise MalformedTree(f"trailing characters near position {tokens[i][0]}")
    if len(set(leaves)) != len(leaves):
        raise MalformedTree("duplicate leaf label")
    # relabel placeholder internals above the largest leaf in order of first
    # appearance; _rebuild splices and renumbers in ascending id order
    base = max(leaves)
    ids: Dict[int, int] = {}
    theta = {}
    for u, v, w in edges:
        a, b = (ids.setdefault(x, base + len(ids) + 1) if x < 0 else x for x in (u, v))
        theta[edge_key(a, b)] = w
    # every group and leaf hangs from one parent edge and no label repeats, so
    # the edges form a tree, and the one build in _rebuild sees every fault
    return WeightedTree(*_rebuild(leaves, theta, theta))


def _weight(tokens: List[Tuple[int, str]], i: int) -> Tuple[float, int]:
    """The weight at token ``i`` (1.0 when it is absent) and the next index."""
    pos, token = tokens[i]
    if not token.startswith(":"):
        return 1.0, i
    try:
        return float(token[1:]), i + 1
    except ValueError:
        raise MalformedTree(f"bad weight at position {pos + 1}") from None


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
