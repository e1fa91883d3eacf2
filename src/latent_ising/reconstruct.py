"""Forest reconstruction from approximate pairwise correlations.

The reconstructor splits leaves into components wherever all correlation
signal is below the estimation floor, builds each component's topology by
incremental quartet insertion, and finally contracts any reconstructed
internal edge whose implied weight is indistinguishable from 1.  The output
is a forest of degree-2-free topologies whose leaf sets partition the input
leaves; components need not be binary once contractions fire.
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import BadParameter
from .trees import (
    CorrelationVector,
    TreeTopology,
    _pairing,
    _postorder,
    _rebuild,
    _side,
    edge_key,
)

#: the constant C of the contraction guarantee below
CONTRACTION_CONSTANT = 4.0


@dataclass(frozen=True)
class ReconstructedForest:
    """Components plus the radii the reconstruction ran with."""

    components: Tuple[TreeTopology, ...]
    xi: float
    eta: float

    def leaf_sets(self) -> Tuple[FrozenSet[int], ...]:
        return tuple(frozenset(c.leaves) for c in self.components)


def reconstruct_forest(alpha_hat: CorrelationVector, xi: float, eta: float) -> ReconstructedForest:
    """Recover a forest compatible with the correlations up to radius eta.

    Guarantees (asserted in tests): the component leaf sets always partition
    the input leaves; every pair placed in different components has
    |alpha_hat| <= 2*eta; and, against ground truth, any contracted edge
    carries true weight >= 1 - C*xi.
    """
    if not 0.0 < xi < 1.0:
        raise BadParameter(f"xi must lie in (0, 1), got {xi}")
    if not eta >= 0.0:  # NaN fails the test too
        raise BadParameter(f"eta must be non-negative, got {eta}")
    strength = alpha_hat.abs()
    split_floor = 2.0 * eta  # pairs below twice the radius are pure noise
    links = ((i, j) for i, j, value in strength.pairs() if value > split_floor)
    components = tuple(
        _contract_high_implied(_build_component(strength, members), strength, xi)
        for members in _clusters(strength.labels, links)
    )
    return ReconstructedForest(components=components, xi=xi, eta=eta)


def _clusters(nodes: Iterable[int], links: Iterable[Tuple[int, int]]) -> List[List[int]]:
    """The groups of ``nodes`` that ``links`` join, each sorted, by smallest member."""
    parent = {v: v for v in nodes}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in links:
        parent[find(u)] = find(v)
    groups: Dict[int, List[int]] = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


# ---------------------------------------------------------------------------
# incremental quartet insertion


def _build_component(strength: CorrelationVector, members: Sequence[int]) -> TreeTopology:
    members = sorted(members)
    if len(members) < 3:  # the only path: insertion starts from a 3-leaf star
        return TreeTopology(members, zip(members, members[1:]))
    next_id = max(strength.labels) + 1
    adj: Dict[int, List[int]] = {next_id: list(members[:3])}
    for leaf in members[:3]:
        adj[leaf] = [next_id]
    next_id += 1
    for leaf in members[3:]:
        p, q = _attachment_edge(adj, strength, leaf)
        t = next_id
        next_id += 1
        adj[p].remove(q)
        adj[q].remove(p)
        adj[p].append(t)
        adj[q].append(t)
        adj[t] = [p, q, leaf]
        adj[leaf] = [t]
    edges = {edge_key(u, v) for u, ns in adj.items() for v in ns}
    return _rebuild(members, edges)[0]  # renumbers internals canonically


def _attachment_edge(
    adj: Dict[int, List[int]], strength: CorrelationVector, x: int
) -> Tuple[int, int]:
    """Walk the partial tree from its smallest leaf, steering by the quartet
    rule of :func:`trees._pairing` toward x's side.

    Each direction from the current node is represented by its leaf most
    strongly correlated with x.  One postorder pass gives every node that
    leaf among the leaves below it; the walk only moves away from the root,
    so the representative behind it is carried along.
    """
    rank = {u: (strength.get(x, u), -u) for u in adj if len(adj[u]) == 1}
    root = min(rank)
    order, parent = _postorder(adj, root)
    top = {}  # the strongest leaf below each node
    for v in order[:-1]:  # the root comes last
        below = [top[w] for w in adj[v] if w != parent[v]]
        top[v] = max(below, key=rank.__getitem__) if below else v
    prev, cur, back = root, adj[root][0], root
    while True:
        directions = sorted(adj[cur])
        reps = [back if d == prev else top[d] for d in directions]
        nxt = directions[_pairing(strength, (x, *reps))[1]]  # pairing k puts x with reps[k]
        if nxt == prev or len(adj[nxt]) == 1:
            return (cur, nxt)
        back = max((r for d, r in zip(directions, reps) if d != nxt), key=rank.__getitem__)
        prev, cur = cur, nxt


# ---------------------------------------------------------------------------
# contraction of near-unit internal edges


def _contract_high_implied(
    topology: TreeTopology, strength: CorrelationVector, xi: float
) -> TreeTopology:
    flagged = []
    for u, v in topology.edges:
        if topology.is_leaf(u) or topology.is_leaf(v):
            continue
        ratio = _implied_weight_ratio(topology, strength, u, v)
        if ratio is not None and ratio > 1.0 - xi:
            flagged.append((u, v))
    # each cluster of flagged edges merges into its smallest node id
    rename = {v: group[0] for group in _clusters(topology.nodes, flagged) for v in group}
    edges = {edge_key(rename[u], rename[v]) for u, v in topology.edges if rename[u] != rename[v]}
    return _rebuild(topology.leaves, edges)[0]


def _implied_weight_ratio(topology: TreeTopology, strength: CorrelationVector, u: int, v: int):
    """Median, over witness quartets, of the squared weight implied for (u, v).

    For leaves a1, a2 behind u's two other branches and b1, b2 behind v's,
    the induced correlations satisfy
    ``a(a1,b1) * a(a2,b2) = a(a1,a2) * a(b1,b2) * theta^2``.  Each branch
    contributes its two smallest leaves, read from the edge-split table, so
    an edge has at most 2**4 witnesses.
    """

    def smallest_two(a: int, d: int) -> List[int]:
        return [topology.leaves[k] for k in np.flatnonzero(_side(topology, a, d))[:2]]

    u_groups = [smallest_two(u, d) for d in topology.neighbors(u) if d != v]
    v_groups = [smallest_two(v, d) for d in topology.neighbors(v) if d != u]
    ratios = []
    for a1, a2, b1, b2 in itertools.product(u_groups[0], u_groups[1], v_groups[0], v_groups[1]):
        denom = strength.get(a1, a2) * strength.get(b1, b2)
        if denom <= 1e-300:
            continue
        ratios.append(strength.get(a1, b1) * strength.get(a2, b2) / denom)
    return float(statistics.median(ratios)) if ratios else None
