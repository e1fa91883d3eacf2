"""Shared builders and ground-truth oracles for the test suite."""

from __future__ import annotations

import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import strategies as st

from latent_ising import (
    TreeTopology,
    WeightedTree,
    binary,
    contract_edge,
    correlations,
    fit_known,
    induced_subtree,
    random_topology,
    topologies_equal,
)
from latent_ising import reconstruct


def peak_bytes(call) -> int:
    """Peak bytes allocated while ``call()`` runs, beyond what was live before it.

    ``tracemalloc`` counts numpy's data buffers, so the figure is deterministic.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


#: edge weights for property tests: anywhere in [-1, 1], often exactly 0 or +-1
EDGE_WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def caterpillar(n: int) -> TreeTopology:
    """Leaves 1..n strung along a spine; leaves 1,2 and n-1,n are cherries."""
    assert n >= 4
    internals = list(range(n + 1, 2 * n - 1))
    edges = [(1, internals[0]), (2, internals[0])]
    for k, v in enumerate(internals[1:], start=1):
        edges.append((internals[k - 1], v))
        edges.append((k + 2, v))
    edges.append((n, internals[-1]))
    return TreeTopology(range(1, n + 1), edges)


def four_leaf_example() -> WeightedTree:
    """Pendant weights 0.5 around a 0.8 middle edge."""
    topo = TreeTopology([1, 2, 3, 4], [(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])
    return WeightedTree(
        topo, {(1, 5): 0.5, (2, 5): 0.5, (5, 6): 0.8, (3, 6): 0.5, (4, 6): 0.5}
    )


def three_leaf_star(t12: float, t13: float, t23: float) -> WeightedTree:
    """Star whose pendant weights realize the three pairwise correlations."""
    topo = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])
    return WeightedTree(topo, {(1, 4): t12, (2, 4): t13, (3, 4): t23})


def random_model(
    n: int,
    rng: np.random.Generator,
    magnitude=(0.3, 0.9),
    signed: bool = False,
) -> WeightedTree:
    """Random binary topology with magnitude-controlled (optionally signed) weights."""
    topo = random_topology(n, rng)
    theta = {}
    for e in topo.edges:
        mag = float(rng.uniform(*magnitude))
        sign = -1.0 if signed and rng.random() < 0.5 else 1.0
        theta[e] = sign * mag
    return WeightedTree(topo, theta)


@pytest.fixture
def rng():
    return philox(0)


# ---------------------------------------------------------------------------
# structural oracle for topology equality


#: the three ways to pair up a sorted quartet (a, b, c, d): ab|cd, ac|bd, ad|bc
QUARTET_PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


def canonical_splits(topology: TreeTopology) -> frozenset:
    """All structurally resolved quartet splits, ``((a, b), (c, d))`` for ab|cd.

    Two degree-2-free trees on the same leaf set are isomorphic exactly when
    these sets agree.  Quartets meeting at a single node (possible after edge
    contractions) are unresolved and omitted.  Path lengths come from a plain
    BFS over ``neighbors``, so the oracle shares no code with the split table
    that ``topologies_equal`` reads.
    """
    dist = {}
    for leaf in topology.leaves:
        depth = {leaf: 0}
        queue = deque([leaf])
        while queue:
            v = queue.popleft()
            for w in topology.neighbors(v):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    queue.append(w)
        dist[leaf] = depth
    splits = set()
    for q in itertools.combinations(topology.leaves, 4):
        sums = [dist[q[a]][q[b]] + dist[q[c]][q[d]] for a, b, c, d in QUARTET_PAIRINGS]
        smallest = min(sums)
        if sums.count(smallest) == 1:
            a, b, c, d = QUARTET_PAIRINGS[sums.index(smallest)]
            splits.add(((q[a], q[b]), (q[c], q[d])))
    return frozenset(splits)


def reference_path(topology: TreeTopology, a: int, b: int) -> list:
    """The nodes of the path from a to b, both included: a plain BFS from a
    over ``neighbors`` with a parent dict, so the oracle shares no code with
    the walk that ``path_nodes`` reads."""
    parent = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for w in topology.neighbors(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    nodes = [b]
    while nodes[-1] != a:
        nodes.append(parent[nodes[-1]])
    return nodes[::-1]


# ---------------------------------------------------------------------------
# ground-truth oracles for the reconstruction contract


def weighted_induced_subtree(truth: WeightedTree, members) -> WeightedTree:
    """Ground-truth subtree on a leaf subset, weights recovered exactly.

    Edge magnitudes of an induced subtree are identified by the leaf
    correlations, so fitting with a tiny radius reproduces them.
    """
    members = sorted(members)
    topo = induced_subtree(truth.topology, members)
    return fit_known(topo, correlations(truth), 1e-9).tree


def obtainable_by_unit_contractions(component, sub: WeightedTree, max_weight_gap: float):
    """Is the component a contraction of ``sub`` using only near-1 edges?"""
    candidates = [
        e
        for e in sub.topology.edges
        if not (sub.topology.is_leaf(e[0]) or sub.topology.is_leaf(e[1]))
        and abs(sub.theta[e]) >= 1.0 - max_weight_gap - 1e-6
    ]
    for r in range(len(candidates) + 1):
        for chosen in itertools.combinations(candidates, r):
            current = sub.topology
            rename = {v: v for v in current.nodes}
            for u, v in chosen:
                a, b = sorted((rename[u], rename[v]))
                current = contract_edge(current, (a, b))
                for key, val in rename.items():
                    if val == b:
                        rename[key] = a
            if topologies_equal(binary(current), component):
                return True
    return False


def check_contract(rec, alpha_hat, truth: WeightedTree):
    """Assert the reconstruction guarantees of ``rec``, run on ``alpha_hat``,
    against the generating model."""
    constant = reconstruct.CONTRACTION_CONSTANT
    all_leaves = sorted(itertools.chain.from_iterable(rec.leaf_sets()))
    assert all_leaves == sorted(truth.topology.leaves)
    for component in rec.components:
        if component.leaf_count < 2:
            continue
        sub = weighted_induced_subtree(truth, component.leaves)
        assert obtainable_by_unit_contractions(component, sub, constant * rec.xi)
    # a split pair has |alpha_hat| <= 2*eta, so by the triangle inequality the
    # truth is within the estimate's worst error of that
    alpha = correlations(truth)
    bound = 2 * rec.eta + alpha_hat.max_abs_difference(alpha)
    for set_a, set_b in itertools.combinations(rec.leaf_sets(), 2):
        for i in set_a:
            for j in set_b:
                assert abs(alpha.get(i, j)) <= bound
