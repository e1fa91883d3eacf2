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
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from .errors import BadParameter
from .trees import (
    CorrelationVector,
    TreeTopology,
    _edge_splits,
    _rebuild,
    _side,
    edge_key,
)

#: witnesses sampled per internal edge when estimating its implied weight
MAX_WITNESS_QUARTETS = 16

#: the constant C of the guarantees below, recorded with every reconstruction
CONTRACTION_CONSTANT = 4.0


@dataclass(frozen=True)
class ReconstructedForest:
    """Components plus the parameters the reconstruction ran with."""

    components: Tuple[TreeTopology, ...]
    xi: float
    delta: float
    eta: float
    contraction_constant: float

    def leaf_sets(self) -> Tuple[FrozenSet[int], ...]:
        return tuple(frozenset(c.leaves) for c in self.components)


def reconstruct_forest(
    alpha_hat: CorrelationVector,
    xi: float,
    delta: float,
    eta: float,
) -> ReconstructedForest:
    """Recover a forest compatible with the correlations up to radius eta.

    Guarantees aimed for (and asserted against ground truth in tests): the
    component leaf sets always partition the input leaves; any contracted
    edge carries true weight >= 1 - C*xi; leaves placed in different
    components have true |correlation| <= C*sqrt(delta).
    """
    if not (0.0 < xi < 1.0 and 0.0 < delta < 1.0):
        raise BadParameter(f"xi and delta must lie in (0, 1), got xi={xi}, delta={delta}")
    if eta < 0.0 or xi * delta < eta - 1e-15:
        raise BadParameter(f"need xi*delta >= eta, got {xi * delta} < {eta}")
    strength = alpha_hat.abs()
    split_floor = 2.0 * eta  # pairs below twice the radius are pure noise
    groups = _split_components(strength, split_floor)
    components = []
    for members in groups:
        topology = _build_component(strength, members)
        if topology.leaf_count >= 4:
            topology = _contract_high_implied(topology, strength, xi)
        components.append(topology)
    components.sort(key=lambda t: t.leaves[0])
    return ReconstructedForest(
        components=tuple(components),
        xi=xi,
        delta=delta,
        eta=eta,
        contraction_constant=CONTRACTION_CONSTANT,
    )


def _split_components(strength: CorrelationVector, floor: float) -> List[List[int]]:
    parent = {leaf: leaf for leaf in strength.labels}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j, value in strength.pairs():
        if value > floor:
            parent[find(i)] = find(j)
    groups: Dict[int, List[int]] = {}
    for leaf in strength.labels:
        groups.setdefault(find(leaf), []).append(leaf)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


# ---------------------------------------------------------------------------
# incremental quartet insertion


def _build_component(strength: CorrelationVector, members: Sequence[int]) -> TreeTopology:
    members = sorted(members)
    if len(members) == 1:
        return TreeTopology(members, [])
    if len(members) == 2:
        return TreeTopology(members, [edge_key(members[0], members[1])])
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
    """Walk the partial tree, steering by quartet tests toward x's side."""
    leaves = [v for v in adj if len(adj[v]) == 1]
    prev = min(leaves)
    cur = adj[prev][0]
    while True:
        directions = sorted(adj[cur])
        reps = []
        for d in directions:
            group = _leaves_beyond(adj, cur, d)
            reps.append(
                max(group, key=lambda u: (strength.get(x, u), -u))
            )
        products = []
        for k in range(3):
            other = [reps[i] for i in range(3) if i != k]
            products.append(strength.get(x, reps[k]) * strength.get(other[0], other[1]))
        best = max(products)
        k = next(i for i, p in enumerate(products) if p >= best - 1e-12)
        nxt = directions[k]
        if nxt == prev or len(adj[nxt]) == 1:
            return (cur, nxt)
        prev, cur = cur, nxt


def _leaves_beyond(adj: Dict[int, List[int]], blocked: int, start: int) -> List[int]:
    seen = {blocked, start}
    stack = [start]
    out = []
    while stack:
        v = stack.pop()
        if len(adj[v]) == 1:
            out.append(v)
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return sorted(out)


# ---------------------------------------------------------------------------
# contraction of near-unit internal edges


def _contract_high_implied(
    topology: TreeTopology, strength: CorrelationVector, xi: float
) -> TreeTopology:
    splits = _edge_splits(topology)
    flagged = []
    for u, v in topology.edges:
        if topology.is_leaf(u) or topology.is_leaf(v):
            continue
        ratio = _implied_weight_ratio(topology, splits, strength, u, v)
        if ratio is not None and ratio > 1.0 - xi:
            flagged.append((u, v))
    # each cluster of flagged edges merges into its smallest node id
    rename = {v: v for v in topology.nodes}
    for u, v in flagged:
        a, b = edge_key(rename[u], rename[v])
        rename = {key: a if val == b else val for key, val in rename.items()}
    edges = {edge_key(rename[u], rename[v]) for u, v in topology.edges if rename[u] != rename[v]}
    return _rebuild(topology.leaves, edges)[0]


def _implied_weight_ratio(
    topology: TreeTopology, splits: np.ndarray, strength: CorrelationVector, u: int, v: int
):
    """Median, over witness quartets, of the squared weight implied for (u, v).

    For leaves a1, a2 behind u's two other branches and b1, b2 behind v's,
    the induced correlations satisfy
    ``a(a1,b1) * a(a2,b2) = a(a1,a2) * a(b1,b2) * theta^2``.  Each branch
    contributes its two smallest leaves, read from ``splits``.
    """

    def smallest_two(a: int, d: int) -> List[int]:
        return [topology.leaves[k] for k in np.flatnonzero(_side(topology, splits, a, d))[:2]]

    u_groups = [smallest_two(u, d) for d in topology.neighbors(u) if d != v]
    v_groups = [smallest_two(v, d) for d in topology.neighbors(v) if d != u]
    ratios = []
    for a1, a2, b1, b2 in itertools.product(u_groups[0], u_groups[1], v_groups[0], v_groups[1]):
        denom = strength.get(a1, a2) * strength.get(b1, b2)
        if denom <= 1e-300:
            continue
        ratios.append(strength.get(a1, b1) * strength.get(a2, b2) / denom)
        if len(ratios) >= MAX_WITNESS_QUARTETS:
            break
    if not ratios:
        return None
    return float(np.median(ratios))
