"""Topology representation, normalization, surgery, and quartet machinery."""

import copy
import hashlib
import itertools
import math
import pickle
import re
import struct
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latent_ising import (
    BadParameter,
    CorrelationVector,
    InvalidCut,
    LeafSetMismatch,
    MalformedTree,
    OddSubset,
    TooFewLeaves,
    TreeTopology,
    UnknownLeaf,
    UnknownPair,
    WeightedForest,
    WeightedTree,
    binary,
    closest_relative_matching,
    contract_edge,
    correlations,
    cut_paste,
    diameter,
    induced_subtree,
    normalize,
    parse_tree,
    path,
    path_nodes,
    quartet_gap,
    random_topology,
    random_weighted_tree,
    serialize_tree,
    topologies_equal,
)
from latent_ising.distribution import marginal_distribution
from latent_ising.trees import (
    TIE_TOLERANCE,
    _attach,
    _dense,
    _detach,
    _edge_splits,
    _matching_pairs,
    _pair_index,
    _pairing,
    _path_incidence,
    _postorder,
    _rebuild,
    _side,
    edge_key,
)

from conftest import (
    canonical_splits,
    caterpillar,
    component_nodes,
    four_leaf_example,
    pair_vector,
    peak_bytes,
    philox,
    reference_path,
    three_leaf_star,
)


def reshaped(topo: TreeTopology, rng, contractions: int, subdivisions: int) -> TreeTopology:
    """Contract random internal edges (nodes of degree >= 4), then subdivide
    random edges with fresh degree-2 nodes."""
    for _ in range(contractions):
        internal = [e for e in topo.edges if not (topo.is_leaf(e[0]) or topo.is_leaf(e[1]))]
        if internal:
            topo = contract_edge(topo, internal[int(rng.integers(len(internal)))])
    for _ in range(subdivisions if topo.edges else 0):
        u, v = topo.edges[int(rng.integers(len(topo.edges)))]
        t = max(topo.nodes) + 1
        topo = TreeTopology(topo.leaves, [e for e in topo.edges if e != (u, v)] + [(u, t), (t, v)])
    return topo


def chained_and_contracted(rng, n: int) -> TreeTopology:
    """A random topology with internal edges contracted into nodes of degree
    4-6, edges subdivided into chains of 1-3 degree-2 nodes, and internal ids
    shuffled (with gaps) so id order and tree order disagree."""
    topo = random_topology(n, rng)
    for _ in range(int(rng.integers(0, 4))):
        internal = [
            (u, v)
            for u, v in topo.edges
            if not (topo.is_leaf(u) or topo.is_leaf(v)) and topo.degree(u) + topo.degree(v) <= 8
        ]
        if internal:
            topo = contract_edge(topo, internal[int(rng.integers(len(internal)))])
    for _ in range(int(rng.integers(0, 4))):
        u, v = topo.edges[int(rng.integers(len(topo.edges)))]
        start = max(topo.nodes) + 1
        chain = [u, *range(start, start + int(rng.integers(1, 4))), v]
        kept = [e for e in topo.edges if e != (u, v)]
        topo = TreeTopology(topo.leaves, kept + list(zip(chain, chain[1:])))
    internal = sorted(v for v in topo.nodes if not topo.is_leaf(v))
    ids = n + 1 + 2 * rng.permutation(len(internal))
    rename = {**{leaf: leaf for leaf in topo.leaves}, **dict(zip(internal, ids.tolist()))}
    return TreeTopology(topo.leaves, [(rename[u], rename[v]) for u, v in topo.edges])


def _correlation_corpus():
    """Seeded models for the pinned correlation hash: trees at n = 1-40, each
    plain, with degree-4 nodes and with degree-2 nodes, and forests of 1-30
    leaves whose components' labels interleave, singletons among them."""
    for n in range(1, 41):
        rng = philox(1000 + n)
        for contractions, subdivisions in ((0, 0), (2, 0), (0, 2), (1, 1)):
            topo = reshaped(random_topology(n, rng), rng, contractions, subdivisions)
            yield WeightedTree(topo, dict(zip(topo.edges, rng.uniform(-1, 1, len(topo.edges)))))
    for seed in range(60):
        rng = philox(2000 + seed)
        n = 1 + seed % 30
        labels = (1 + rng.permutation(3 * n)[:n]).tolist()
        components = []
        while labels:
            size = min(len(labels), int(rng.integers(1, 7)))
            part, labels = labels[:size], labels[size:]
            tree = random_weighted_tree(size, rng, -1.0, 1.0)
            components.append(relabeled(tree, part))
        yield WeightedForest(components)


def _reference_correlations(tree: WeightedTree) -> np.ndarray:
    """Path products in pair order, each multiplied from the smaller leaf a to b."""
    pairs = itertools.combinations(tree.leaves, 2)
    walks = (reference_path(tree.topology, a, b) for a, b in pairs)
    return np.array([math.prod(map(tree.weight, nodes, nodes[1:])) for nodes in walks])


def relabeled(tree: WeightedTree, labels) -> WeightedTree:
    """The tree with its sorted leaves renamed to the sorted ``labels``."""
    mapping = dict(zip(tree.leaves, sorted(labels)))
    internal = sorted(set(tree.topology.nodes) - set(mapping))
    mapping.update(zip(internal, itertools.count(max(labels) + 1)))
    return WeightedTree(
        TreeTopology(labels, [(mapping[u], mapping[v]) for u, v in tree.topology.edges]),
        {(mapping[u], mapping[v]): w for (u, v), w in tree.theta.items()},
    )


# ---------------------------------------------------------------------------
# reference: restart-scan contraction, renumbering and splitting, each tree
# built and validated before the next step; ``_rebuild`` must match it exactly


def _reference_renumber(leaves, edges):
    leaves = sorted(leaves)
    adjacency = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    mapping = {leaf: leaf for leaf in leaves}
    if adjacency:
        nxt = leaves[-1] + 1
        leaf_set = set(leaves)
        seen = {leaves[0]}
        queue = deque([leaves[0]])
        while queue:
            v = queue.popleft()
            if v not in leaf_set and v not in mapping:
                mapping[v] = nxt
                nxt += 1
            for w in sorted(adjacency[v]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return [(edge_key(u, v), edge_key(mapping[u], mapping[v])) for u, v in edges]


def _reference_contract_degree_two(topology, theta):
    adjacency = {v: list(topology.neighbors(v)) for v in topology.nodes}
    weights = dict(theta) if theta is not None else {e: 1.0 for e in topology.edges}
    leaf_set = set(topology.leaves)
    changed = True
    while changed:
        changed = False
        for v in sorted(adjacency):
            if v in leaf_set or len(adjacency[v]) != 2:
                continue
            a, b = adjacency[v]
            w = weights.pop(edge_key(a, v)) * weights.pop(edge_key(v, b))
            del adjacency[v]
            adjacency[a].remove(v)
            adjacency[b].remove(v)
            adjacency[a].append(b)
            adjacency[b].append(a)
            weights[edge_key(a, b)] = w
            changed = True
            break
    edges = {edge_key(u, v) for u, ns in adjacency.items() for v in ns}
    relabel = dict(_reference_renumber(sorted(leaf_set), edges))
    return TreeTopology(leaf_set, relabel.values()), {relabel[e]: weights[e] for e in edges}


def _reference_normalize(tree):
    topology, weights = _reference_contract_degree_two(tree.topology, tree.theta)
    adjacency = {v: list(topology.neighbors(v)) for v in topology.nodes}
    leaf_set = set(topology.leaves)
    next_id = max(adjacency) + 1
    changed = True
    while changed:
        changed = False
        for v in sorted(adjacency):
            if v in leaf_set or len(adjacency[v]) <= 3:
                continue
            moved = sorted(adjacency[v])[2:]
            w = next_id
            next_id += 1
            adjacency[w] = []
            for u in moved:
                adjacency[v].remove(u)
                adjacency[u].remove(v)
                adjacency[u].append(w)
                adjacency[w].append(u)
                weights[edge_key(u, w)] = weights.pop(edge_key(u, v))
            adjacency[v].append(w)
            adjacency[w].append(v)
            weights[edge_key(v, w)] = 1.0
            changed = True
            break
    edges = {edge_key(u, v) for u, ns in adjacency.items() for v in ns}
    relabel = dict(_reference_renumber(sorted(leaf_set), edges))
    return WeightedTree(
        TreeTopology(leaf_set, relabel.values()), {relabel[e]: weights[e] for e in edges}
    )


def _reference_binary(topology):
    return _reference_contract_degree_two(topology, None)[0]


def _reference_cut_paste(topology, u, v, target):
    t = max(topology.nodes) + 1
    edges = set(topology.edges) - {edge_key(u, v), edge_key(*target)}
    edges |= {edge_key(t, u), edge_key(t, target[0]), edge_key(t, target[1])}
    return _reference_binary(TreeTopology(topology.leaves, edges))


def _reference_induced_subtree(topology, members):
    adjacency = {v: set(topology.neighbors(v)) for v in topology.nodes}
    fringe = deque(v for v, ns in adjacency.items() if len(ns) <= 1 and v not in members)
    while fringe:
        v = fringe.popleft()
        if v not in adjacency:
            continue
        for w in adjacency.pop(v):
            adjacency[w].discard(v)
            if len(adjacency[w]) <= 1 and w not in members:
                fringe.append(w)
    edges = {edge_key(a, b) for a, ns in adjacency.items() for b in ns}
    return _reference_binary(TreeTopology(members, edges))


class TestRebuild:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6))
    def test_surgery_matches_restart_scan_reference(self, seed):
        rng = philox(seed)
        n = int(rng.integers(2, 13))
        topo = chained_and_contracted(rng, n)
        wt = WeightedTree(topo, dict(zip(topo.edges, rng.uniform(-1, 1, len(topo.edges)))))
        assert binary(topo).edges == _reference_binary(topo).edges
        got, want = normalize(wt), _reference_normalize(wt)
        assert got.topology.edges == want.topology.edges
        assert [repr(got.theta[e]) for e in got.topology.edges] == [
            repr(want.theta[e]) for e in want.topology.edges
        ]
        members = sorted(rng.choice(range(1, n + 1), int(rng.integers(2, n + 1)), False).tolist())
        assert (
            induced_subtree(topo, members).edges
            == _reference_induced_subtree(topo, members).edges
        )
        u, v = topo.edges[int(rng.integers(len(topo.edges)))][:: int(rng.choice([-1, 1]))]
        v_side = component_nodes(topo, v, [(u, v)])
        targets = [e for e in topo.edges if e[0] in v_side and e[1] in v_side]
        if targets and topo.degree(v) != 2:
            target = targets[int(rng.integers(len(targets)))]
            want = _reference_cut_paste(topo, u, v, target)
            assert cut_paste(topo, u, v, target).edges == want.edges


class TestValidation:
    def test_disconnected_rejected(self):
        with pytest.raises(MalformedTree):
            TreeTopology([1, 2, 3, 4], [(1, 2), (3, 4)])

    def test_cycle_rejected(self):
        with pytest.raises(MalformedTree):
            TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4), (1, 2)])

    def test_leaf_with_degree_two_rejected(self):
        with pytest.raises(MalformedTree):
            TreeTopology([1, 2, 3], [(1, 2), (2, 3)])

    @pytest.mark.parametrize(
        "leaves, edges, message",
        [
            ([], [], "a tree needs at least one leaf"),
            ([1, 2], [(1, 2), (3, 3)], "self-loop at node 3"),
            ([1, 2, 3], [(1, 4), (4, 1), (2, 4), (3, 4)], "duplicate edge"),
            ([1], [(1, 2)], "one-leaf tree must have no edges"),
            ([1, 2], [(1, 2), (3, 4), (4, 5), (5, 3)], "graph is disconnected"),
            ([1, 2, 5], [(1, 3), (2, 3), (5, 3)], "internal node 3 collides with leaf labels"),
            ([1, 2, 3], [(1, 4), (2, 4), (3, 4), (4, 5)], "internal node 5 dangles with degree 1"),
        ],
        ids=[
            "no-leaf", "self-loop", "duplicate-edge", "one-leaf-with-edges",
            "disconnected-with-tree-edge-count", "internal-id-below-leaf", "dangling-internal",
        ],
    )
    def test_malformed_topology_message(self, leaves, edges, message):
        with pytest.raises(MalformedTree) as exc:
            TreeTopology(leaves, edges)
        assert str(exc.value) == message

    def test_weight_outside_range_rejected(self):
        topo = TreeTopology([1, 2], [(1, 2)])
        with pytest.raises(MalformedTree):
            WeightedTree(topo, {(1, 2): 1.5})

    def test_nan_weight_rejected(self):
        topo = TreeTopology([1, 2], [(1, 2)])
        with pytest.raises(MalformedTree):
            WeightedTree(topo, {(1, 2): float("nan")})

    def test_missing_weight_rejected(self):
        topo = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])
        with pytest.raises(MalformedTree):
            WeightedTree(topo, {(1, 4): 0.5})

    def test_forest_with_a_leaf_in_two_components_rejected(self):
        left = WeightedTree(TreeTopology([1, 2], [(1, 2)]), {(1, 2): 0.5})
        right = WeightedTree(TreeTopology([2, 3], [(2, 3)]), {(2, 3): 0.5})
        with pytest.raises(LeafSetMismatch, match=re.escape("leaves [2] appear in two components")):
            WeightedForest([left, right])

    def test_empty_forest_rejected(self):
        with pytest.raises(LeafSetMismatch, match="at least one component"):
            WeightedForest([])

    def test_tolerated_overshoot_is_clamped_bit_for_bit(self):
        topo = TreeTopology([1, 2, 3, 4], [(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])
        given = [1 + 1e-13, -(1 + 1e-13), -0.0, 0.25, -1.0]
        # reversed keys and order: theta follows topology.edges all the same
        theta = {(v, u): w for (u, v), w in reversed(list(zip(topo.edges, given)))}
        wt = WeightedTree(topo, theta)
        assert list(wt.theta) == list(topo.edges)
        want = [min(1.0, max(-1.0, w)) for w in given]
        assert [struct.pack("<d", w) for w in wt.theta.values()] == [
            struct.pack("<d", w) for w in want
        ]
        assert want[:3] == [1.0, -1.0, 0.0] and math.copysign(1.0, wt.theta[topo.edges[2]]) == -1.0


class TestNormalize:
    def test_already_binary_unchanged(self):
        wt = four_leaf_example()
        norm = normalize(wt)
        assert topologies_equal(norm.topology, wt.topology)
        assert norm.theta == wt.theta

    def test_degree_two_chain_contracts_to_product(self):
        chain = WeightedTree(
            TreeTopology([1, 2], [(1, 3), (3, 4), (4, 2)]),
            {(1, 3): 0.5, (3, 4): 0.5, (4, 2): 0.5},
        )
        norm = normalize(chain)
        assert norm.topology.edges == ((1, 2),)
        assert norm.theta[(1, 2)] == pytest.approx(0.125)
        # leaf distribution unchanged: exact TV = 0 against the original
        np.testing.assert_allclose(
            marginal_distribution(chain), marginal_distribution(norm), atol=1e-15
        )

    def test_degree_four_star_splits_with_unit_edge(self):
        star = WeightedTree(
            TreeTopology([1, 2, 3, 4], [(1, 5), (2, 5), (3, 5), (4, 5)]),
            {(1, 5): 0.5, (2, 5): 0.5, (3, 5): 0.5, (4, 5): 0.5},
        )
        norm = normalize(star)
        internals = [v for v in norm.topology.nodes if not norm.topology.is_leaf(v)]
        assert len(internals) == 2
        assert all(norm.topology.degree(v) == 3 for v in internals)
        middle = tuple(sorted(internals))
        assert norm.theta[middle] == 1.0
        np.testing.assert_allclose(
            correlations(norm).values, correlations(star).values, atol=1e-15
        )

    def test_chain_and_hub_in_one_tree(self):
        # a degree-2 chain feeding a degree-4 hub: contraction then splitting
        topo = TreeTopology(
            [1, 2, 3, 4], [(1, 5), (5, 6), (6, 2), (6, 3), (6, 7), (7, 4)]
        )
        wt = WeightedTree(
            topo,
            {(1, 5): 0.5, (5, 6): 0.8, (6, 2): 0.6, (6, 3): 0.7, (6, 7): 0.9, (7, 4): 0.4},
        )
        norm = normalize(wt)
        assert norm.topology.is_binary()
        np.testing.assert_allclose(
            correlations(norm).values, correlations(wt).values, atol=1e-15
        )

    @pytest.mark.parametrize("n", range(2, 31))
    def test_identity_on_parsed_trees(self, n):
        # _model_table passes a binary tree on without normalizing it
        tree = parse_tree(serialize_tree(random_weighted_tree(n, philox(n), -0.9, 0.9)))
        norm = normalize(tree)
        assert norm.topology.edges == tree.topology.edges
        assert list(norm.theta.items()) == list(tree.theta.items())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_idempotent_and_correlation_preserving(self, seed):
        rng = philox(seed)
        n = int(rng.integers(2, 9))
        wt = random_weighted_tree(n, rng, -1.0, 1.0)
        once = normalize(wt)
        twice = normalize(once)
        assert topologies_equal(once.topology, twice.topology)
        assert once.theta == twice.theta
        np.testing.assert_allclose(
            correlations(once).values, correlations(wt).values, atol=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 14))
    def test_second_rebuild_changes_nothing(self, seed, n):
        # normalize skips its second rebuild when nothing needs splitting; the
        # reference runs it on every output: renumbering a canonical tree is the identity
        rng = philox(seed)
        topo = chained_and_contracted(rng, n)
        tree = WeightedTree(topo, dict(zip(topo.edges, rng.uniform(-1.0, 1.0, len(topo.edges)))))
        norm = normalize(tree)
        topology, weights = _rebuild(norm.leaves, norm.topology.edges, norm.theta)
        assert topology.edges == norm.topology.edges
        assert list(WeightedTree(topology, weights).theta.items()) == list(norm.theta.items())


class TestPath:
    def test_three_leaf_star(self):
        topo = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])
        assert path(topo, 1, 2) == [(1, 4), (2, 4)]

    def test_caterpillar(self):
        topo = TreeTopology([1, 2, 3, 4], [(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])
        assert path(topo, 1, 3) == [(1, 5), (5, 6), (3, 6)]

    def test_identical_endpoints(self):
        topo = TreeTopology([1, 2], [(1, 2)])
        with pytest.raises(UnknownPair):
            path(topo, 1, 1)

    def test_unknown_leaf(self):
        topo = TreeTopology([1, 2], [(1, 2)])
        with pytest.raises(UnknownLeaf):
            path(topo, 1, 9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 40), st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3),
        st.booleans(),
    )
    @example(40, 0, 3, 3, True)
    @example(40, 1, 0, 0, False)
    def test_path_nodes_is_the_bfs_path(self, n, seed, contractions, subdivisions, relabel):
        # every ordered pair of nodes, internal and degree-2 nodes included
        rng = philox(seed)
        topo = reshaped(random_topology(n, rng), rng, contractions, subdivisions)
        if relabel:
            labels = (np.sort(rng.choice(10 * n, size=n, replace=False)) + 1).tolist()
            topo = relabeled(WeightedTree(topo, dict.fromkeys(topo.edges, 1.0)), labels).topology
        for a, b in itertools.permutations(sorted(topo.nodes), 2):
            assert path_nodes(topo, a, b) == reference_path(topo, a, b)

    def test_path_nodes_reads_the_kept_walk(self, monkeypatch):
        topo = reshaped(random_topology(20, philox(3)), philox(4), 2, 2)

        def walk_again(*args):
            raise AssertionError("path_nodes ran a fresh walk")

        monkeypatch.setattr("latent_ising.trees._postorder", walk_again)
        for a, b in itertools.permutations(sorted(topo.nodes), 2):
            path_nodes(topo, a, b)


class TestPairIndex:
    def test_matches_triu_indices(self):
        for n in range(71):
            a, b = _pair_index(n)
            want_a, want_b = np.triu_indices(n, 1)
            assert a.dtype == want_a.dtype and b.dtype == want_b.dtype
            assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
            alpha = CorrelationVector(range(n), philox(n).uniform(-1.0, 1.0, len(a)))
            assert _dense(alpha)[a, b].tobytes() == alpha.values.tobytes()

    def test_the_package_has_one_pair_index(self):
        src = Path(__file__).resolve().parent.parent / "src"
        for word in ("triu_indices", "_pair_offset"):
            assert [p.name for p in src.rglob("*.py") if word in p.read_text()] == []


class TestKeptMatrix:
    def test_symmetric_with_a_unit_diagonal_and_read_only(self):
        alpha = correlations(random_weighted_tree(9, philox(11), -1.0, 1.0))
        matrix = _dense(alpha)
        assert matrix.shape == (9, 9) and matrix.dtype == np.float64
        assert np.array_equal(matrix, matrix.T)
        assert np.array_equal(np.diag(matrix), np.ones(9))
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 1] = 0.5

    def test_filled_once_and_dropped_by_pickling_and_copying(self):
        alpha = correlations(random_weighted_tree(6, philox(12), -1.0, 1.0))
        assert alpha._matrix is None  # nothing fills it before the first read
        assert _dense(alpha) is _dense(alpha) is alpha._matrix
        for back in (pickle.loads(pickle.dumps(alpha)), copy.copy(alpha)):
            assert back._matrix is None
            assert _dense(back).tobytes() == _dense(alpha).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_get_and_restrict_match_the_offset_arithmetic(self, n):
        rng = philox(500 + n)
        labels = sorted(rng.choice(range(1, 4 * n), n, replace=False).tolist())
        alpha = CorrelationVector(labels, rng.uniform(-1.0, 1.0, n * (n - 1) // 2))

        def offset(a, b):  # positions a < b < n in lexicographic pair order
            return a * (2 * n - a - 1) // 2 + b - a - 1

        for a, b in itertools.permutations(range(n), 2):
            want = alpha.values[offset(min(a, b), max(a, b))]
            assert alpha.get(labels[a], labels[b]) == want
        keep = sorted(rng.choice(n, max(2, n // 2), replace=False).tolist())
        sub = alpha.restrict([labels[k] for k in keep])
        want = [alpha.values[offset(a, b)] for a, b in itertools.combinations(keep, 2)]
        assert sub.values.tolist() == want


class TestCorrelations:
    def test_star_products(self):
        alpha = correlations(three_leaf_star(0.5, 0.5, 1.0))
        assert alpha.get(1, 2) == pytest.approx(0.25)
        assert alpha.get(1, 3) == pytest.approx(0.5)
        assert alpha.get(2, 3) == pytest.approx(0.5)

    def test_sign_multiplies_through(self):
        alpha = correlations(three_leaf_star(-0.5, 0.5, 1.0))
        assert alpha.get(1, 2) == pytest.approx(-0.25)
        assert alpha.get(1, 3) == pytest.approx(-0.5)
        assert alpha.get(2, 3) == pytest.approx(0.5)

    def test_nan_correlation_rejected(self):
        with pytest.raises(UnknownPair):
            CorrelationVector([1, 2, 3, 4], [np.nan, 0.5, 0.5, 0.5, 0.5, 0.5])

    def test_repeated_labels_rejected(self):
        with pytest.raises(UnknownPair, match="repeated leaf labels"):
            CorrelationVector([1, 1, 2], [0.1, 0.2, 0.3])

    def test_max_abs_difference_of_pairless_vectors_is_zero(self):
        single = CorrelationVector([3], [])
        assert single.max_abs_difference(CorrelationVector([3], [])) == 0.0

    @pytest.mark.parametrize(
        "tree",
        [
            *(random_weighted_tree(n, philox(n), -1.0, 1.0) for n in (1, 2, 3, 7, 40, 128)),
            parse_tree("((1:0.5,2:-0.3,3:0.7):0.9,(4:0.2,5:0.6,6:-0.8,7:0.4):0.3,8:0.5);"),
            parse_tree("((3:0.51,10:-0.33):0.9,(250:0.2,11:0.6,12:-0.8):0.3,14:0.5,15:-0.7);"),
        ],
        ids=["n1", "n2", "n3", "n7", "n40", "n128", "non-binary", "labels-3-10-250"],
    )
    def test_products_pinned_to_path_walk(self, tree):
        """Bit for bit: each pair's product runs along its path from the smaller leaf."""
        assert np.array_equal(correlations(tree).values, _reference_correlations(tree))

    def test_forest_products_pinned_per_component(self):
        forest = WeightedForest(
            [
                relabeled(random_weighted_tree(5, philox(1), -1.0, 1.0), [1, 4, 9, 12, 20]),
                relabeled(random_weighted_tree(6, philox(2), -1.0, 1.0), [2, 3, 10, 11, 15, 30]),
                WeightedTree(TreeTopology([7], []), {}),
            ]
        )
        alpha = correlations(forest)
        assert alpha.labels == forest.leaves
        home = {leaf: k for k, c in enumerate(forest.components) for leaf in c.leaves}
        for i, j, value in alpha.pairs():
            if home[i] != home[j]:
                assert value == 0.0
        for comp in forest.components:
            within = CorrelationVector(comp.leaves, _reference_correlations(comp))
            assert np.array_equal(alpha.restrict(comp.leaves).values, within.values)

    def test_pinned_over_seeded_trees_and_forests(self):
        """One reader for trees and forests: the hash was computed from the
        separate tree and forest readers that it replaced."""
        digest = hashlib.sha256()
        for model in _correlation_corpus():
            alpha = correlations(model)
            digest.update(np.asarray(alpha.labels, dtype=np.int64).tobytes())
            digest.update(alpha.values.tobytes())
        assert digest.hexdigest() == (
            "1b7088c59f91914f7beb93e236728f56a481ec9cbc226dc9dc5dcf531e42aebb"
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 40])
    def test_a_tree_reads_as_its_one_component_forest(self, n):
        rng = philox(70 + n)
        topo = reshaped(random_topology(n, rng), rng, 1, 1)
        tree = WeightedTree(topo, dict(zip(topo.edges, rng.uniform(-1, 1, len(topo.edges)))))
        alone, wrapped = correlations(tree), correlations(WeightedForest([tree]))
        assert alone.labels == wrapped.labels
        assert alone.values.tobytes() == wrapped.values.tobytes()

    def test_non_model_rejected(self):
        with pytest.raises(BadParameter, match="cannot interpret TreeTopology"):
            correlations(random_topology(5, philox(3)))

    def test_restrict_keeps_each_pair_value(self):
        alpha = correlations(random_weighted_tree(9, philox(5), -0.9, 0.9))
        sub = alpha.restrict([8, 2, 5, 3])
        assert sub.labels == (2, 3, 5, 8)
        for i, j, value in sub.pairs():
            assert value == alpha.get(i, j)
        assert alpha.restrict(range(1, 10)) is alpha
        with pytest.raises(UnknownLeaf, match="leaf 10 not covered"):
            alpha.restrict([2, 10, 11])

    def test_get_reads_each_pair_by_label(self):
        alpha = CorrelationVector([3, 1, 2], [0.1, 0.0, -0.4])  # pairs of the sorted labels
        assert (alpha.get(2, 1), alpha.get(3, 1), alpha.get(3, 2)) == (0.1, 0.0, -0.4)
        assert (alpha.get(1, 2), alpha.get(1, 3), alpha.get(2, 3)) == (0.1, 0.0, -0.4)

    @pytest.mark.parametrize(
        "pair, error, message",
        [
            ((1, 1), UnknownPair, "identical endpoints"),
            ((4, 4), UnknownPair, "identical endpoints"),  # the self pair is caught first
            ((1, 4), UnknownLeaf, "leaf 4 not covered"),
            ((0, 2), UnknownLeaf, "leaf 0 not covered"),
        ],
        ids=["self-pair", "unknown-self-pair", "unknown-label", "unknown-first-label"],
    )
    def test_get_rejects_self_and_unknown_pairs(self, pair, error, message):
        with pytest.raises(error, match=message):
            CorrelationVector([1, 2, 3], np.zeros(3)).get(*pair)

    def test_values_are_a_read_only_copy(self):
        given = np.array([0.1, 0.2, 0.3])
        alpha = CorrelationVector([1, 2, 3], given)
        given[1] = -0.5
        assert alpha.values.tolist() == [0.1, 0.2, 0.3]
        assert not alpha.values.flags.writeable

    @pytest.mark.parametrize("value", [1.0 + 1e-6, float("nan"), -float("inf")],
                             ids=["above-one", "nan", "minus-inf"])
    def test_values_outside_the_cube_rejected(self, value):
        with pytest.raises(UnknownPair, match=re.escape("outside [-1, 1]")):
            CorrelationVector([1, 2, 3], [0.0, 0.0, value])

    def test_a_tolerated_overshoot_is_clamped(self):
        alpha = CorrelationVector([1, 2, 3], [1 + 1e-10, 0.0, -1 - 1e-10])
        assert (alpha.get(1, 2), alpha.get(1, 3), alpha.get(2, 3)) == (1.0, 0.0, -1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_two_smaller_cross_products_tie(self, seed):
        rng = philox(seed)
        n = int(rng.integers(4, 9))
        alpha = correlations(random_weighted_tree(n, rng, -1.0, 1.0))
        for q in itertools.combinations(range(1, n + 1), 4):
            products = sorted(
                [
                    abs(alpha.get(q[0], q[1]) * alpha.get(q[2], q[3])),
                    abs(alpha.get(q[0], q[2]) * alpha.get(q[1], q[3])),
                    abs(alpha.get(q[0], q[3]) * alpha.get(q[1], q[2])),
                ]
            )
            assert abs(products[0] - products[1]) <= 1e-12


class TestQuartetGap:
    def test_four_leaf_example(self):
        alpha = correlations(four_leaf_example())
        assert _pairing(alpha, (1, 2, 3, 4))[1] == 0  # 12|34
        assert quartet_gap(alpha, (1, 2, 3, 4)) == pytest.approx(0.0625 - 0.04)

    def test_full_symmetry_breaks_lexicographically(self):
        wt = four_leaf_example()
        alpha = correlations(WeightedTree(wt.topology, {**wt.theta, (5, 6): 1.0}))
        assert _pairing(alpha, (1, 2, 3, 4))[1] == 0  # 12|34, the first of three ties
        assert quartet_gap(alpha, (4, 3, 2, 1)) == pytest.approx(0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.floats(1e-6, 0.2))
    def test_gap_is_four_eps_lipschitz(self, seed, eps):
        rng = philox(seed)
        base = rng.uniform(-1, 1, 6)
        shifted = np.clip(base + rng.uniform(-eps, eps, 6), -1, 1)
        a = CorrelationVector([1, 2, 3, 4], base)
        b = CorrelationVector([1, 2, 3, 4], shifted)
        actual_eps = a.max_abs_difference(b)
        gap_a = quartet_gap(a, (1, 2, 3, 4))
        gap_b = quartet_gap(b, (1, 2, 3, 4))
        assert abs(gap_a - gap_b) <= 4 * actual_eps + 1e-12

    def test_two_eps_bound_fails_on_adversarial_pair(self):
        # Both vectors are realizable on the balanced 4-leaf tree and are
        # pairwise within eps, yet the gaps differ by ~4*eps: the additive
        # stability constant of the gap really is 4, not 2.
        eps = 0.1
        a = pair_vector(
            [1, 2, 3, 4],
            {(1, 2): 0.9, (3, 4): 0.9, (1, 3): 0.9, (2, 4): 0.9, (1, 4): 0.9, (2, 3): 0.9},
        )
        b = pair_vector(
            [1, 2, 3, 4],
            {(1, 2): 1.0, (3, 4): 1.0, (1, 3): 0.8, (2, 4): 0.8, (1, 4): 0.8, (2, 3): 0.8},
        )
        assert a.max_abs_difference(b) == pytest.approx(eps)
        gap_a = quartet_gap(a, (1, 2, 3, 4))
        gap_b = quartet_gap(b, (1, 2, 3, 4))
        assert abs(gap_a - gap_b) > 2 * eps

    def test_duplicate_leaves_rejected(self):
        alpha = correlations(four_leaf_example())
        with pytest.raises(UnknownPair):
            quartet_gap(alpha, (1, 1, 2, 3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_gap_ignores_the_order_of_the_quartet(self, seed):
        rng = philox(seed)
        alpha = CorrelationVector([1, 2, 3, 4, 5], rng.uniform(-1, 1, 10))
        quartet = rng.choice(alpha.labels, 4, replace=False).tolist()
        gaps = {quartet_gap(alpha, q) for q in itertools.permutations(quartet)}
        assert gaps == {quartet_gap(alpha, sorted(quartet))}

    def test_gap_scales_as_the_square_of_a_common_scale(self):
        alpha = correlations(random_weighted_tree(7, philox(62), -1.0, 1.0))
        half = CorrelationVector(alpha.labels, alpha.values / 2)  # exact: a power of two
        for q in itertools.combinations(alpha.labels, 4):
            assert quartet_gap(half, q) == quartet_gap(alpha, q) / 4


class TestCutPaste:
    def test_four_leaf_reattachment_flips_split(self):
        topo = TreeTopology([1, 2, 3, 4], [(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])
        moved = cut_paste(topo, 1, 5, (6, 4))
        assert canonical_splits(moved) == frozenset({((1, 4), (2, 3))})

    def test_documented_surgery_example(self):
        # moving an internal node's block into the middle of a far edge,
        # followed by degree-2 contraction on both detachment points
        topo = TreeTopology(
            [1, 2, 3, 4, 5, 6],
            [(7, 8), (7, 9), (9, 10), (1, 7), (2, 8), (3, 8), (4, 9), (10, 11), (5, 11), (6, 11)],
        )
        moved = cut_paste(topo, 8, 7, (9, 10))
        expected = TreeTopology(
            [1, 2, 3, 4, 5, 6],
            [(1, 7), (4, 7), (7, 8), (8, 9), (2, 9), (3, 9), (8, 10), (5, 10), (6, 10)],
        )
        assert topologies_equal(moved, expected)

    def test_cut_leaving_a_dangling_node_rejected(self):
        chain = TreeTopology([1, 2], [(1, 3), (2, 3)])
        with pytest.raises(InvalidCut):
            cut_paste(chain, 1, 3, (2, 3))

    def test_target_in_moved_component_rejected(self):
        topo = TreeTopology([1, 2, 3, 4], [(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])
        with pytest.raises(InvalidCut):
            cut_paste(topo, 6, 5, (3, 6))

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_checks_and_their_order_match_the_bfs_oracle(self, n):
        # every cut edge and target in both orientations, degree-2 and
        # degree-4 nodes included; the target is checked before the cut
        rng = philox(n)
        for topo in (random_topology(n, rng), reshaped(random_topology(n, rng), rng, 2, 2)):
            both = [*topo.edges, *((b, a) for a, b in topo.edges)]
            u, v = both[0]
            with pytest.raises(InvalidCut, match=rf"^\({u}, {u}\) is not an edge$"):
                cut_paste(topo, u, u, (u, v))
            with pytest.raises(InvalidCut, match=rf"^target \({u}, {u}\) is not an edge$"):
                cut_paste(topo, u, v, (u, u))
            for u, v in both:
                v_side = component_nodes(topo, v, [(u, v)])
                for r, s in both:
                    if r not in v_side or s not in v_side:
                        message = f"target ({r}, {s}) lies in the component being moved"
                    elif topo.degree(v) == 2:
                        message = f"cutting ({u}, {v}) leaves node {v} dangling"
                    else:
                        assert cut_paste(topo, u, v, (r, s)).leaves == topo.leaves
                        continue
                    with pytest.raises(InvalidCut) as exc:
                        cut_paste(topo, u, v, (r, s))
                    assert str(exc.value) == message

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_node_count_and_leaves_preserved(self, seed):
        rng = philox(seed)
        n = int(rng.integers(4, 10))
        topo = random_topology(n, rng)
        leaf = int(rng.integers(1, n + 1))
        hub = topo.neighbors(leaf)[0]
        far = [
            e
            for e in topo.edges
            if leaf not in e and e != tuple(sorted((leaf, hub)))
        ]
        target = far[int(rng.integers(len(far)))]
        moved = cut_paste(topo, leaf, hub, target)
        assert moved.leaves == topo.leaves
        assert len(moved.nodes) == len(topo.nodes)
        assert moved.is_binary()
        # surgery renumbers internal ids back to a contiguous block
        internals = sorted(v for v in moved.nodes if not moved.is_leaf(v))
        assert internals == list(range(n + 1, n + 1 + len(internals)))


def same_tree(a: TreeTopology, b: TreeTopology) -> bool:
    return a.edges == b.edges and list(a._adjacency.items()) == list(b._adjacency.items())


class TestDetachAttach:
    """One cut, many pastes: detach + attach is cut_paste, target by target."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(4, 24), st.integers(0, 10**6), st.booleans())
    def test_every_paste_of_one_cut_matches_cut_paste(self, n, seed, plain):
        rng = philox(seed)
        topo = random_topology(n, rng) if plain else chained_and_contracted(rng, n)
        u, v = topo.edges[int(rng.integers(len(topo.edges)))][:: int(rng.choice([-1, 1]))]
        if topo.degree(v) == 2:
            with pytest.raises(InvalidCut, match="dangling"):
                _detach(topo, u, v)
            return
        cut = _detach(topo, u, v)
        v_side = component_nodes(topo, v, [(u, v)])
        for r, s in topo.edges:
            target = (r, s) if rng.random() < 0.5 else (s, r)
            if r in v_side and s in v_side:
                pasted = _attach(cut, target)[0]
                assert same_tree(pasted, cut_paste(topo, u, v, target))
                assert same_tree(pasted, _reference_cut_paste(topo, u, v, target))
            else:
                with pytest.raises(InvalidCut, match="component being moved"):
                    cut_paste(topo, u, v, target)

    @pytest.mark.parametrize("seed", range(6))
    def test_the_cut_shares_and_never_writes_through(self, seed):
        # every cut of plain and chained trees, so cuts that splice v or a
        # chain's degree-2 nodes are included, pasted at every valid target
        rng = philox(70 + seed)
        topo = random_topology(9, rng) if seed % 2 else chained_and_contracted(rng, 9)
        adjacency, walk = list(topo._adjacency.items()), repr(topo._walk)
        spliced_any = False
        for u, v in [*topo.edges, *((b, a) for a, b in topo.edges)]:
            if topo.degree(v) == 2:
                continue
            cut = _detach(topo, u, v)
            spliced = {x for x, _, _ in cut.spliced}
            spliced_any |= bool(spliced)
            written = {u, v, cut.t, *(w for _, a, b in cut.spliced for w in (a, b))}
            assert set(cut.adjacency) == (topo.nodes - spliced) | {cut.t}
            for x, ns in cut.adjacency.items():
                assert (ns is topo._adjacency.get(x)) == (x not in written)
            v_side = component_nodes(topo, v, [(u, v)])
            for r, s in topo.edges:
                if r in v_side and s in v_side:
                    assert _attach(cut, (r, s))[0].leaves == topo.leaves
            assert list(topo._adjacency.items()) == adjacency
            assert repr(topo._walk) == walk
        assert spliced_any

    @settings(max_examples=80, deadline=None)
    @given(st.integers(4, 24), st.integers(0, 10**6), st.booleans())
    def test_sequence_is_one_cut_paste_per_path_edge(self, n, seed, plain):
        rng = philox(seed)
        topo = random_topology(n, rng) if plain else chained_and_contracted(rng, n)
        i, j = sorted(rng.choice(topo.leaves, 2, replace=False).tolist())
        edges = path(topo, i, j)
        hub = edges[0][0] if edges[0][1] == i else edges[0][1]
        if topo.degree(hub) == 2:
            with pytest.raises(InvalidCut, match="dangling"):
                _detach(topo, i, hub)
            return
        cut = _detach(topo, i, hub)  # one cut shared by every paste beyond it
        for e in edges[1:]:
            assert same_tree(_attach(cut, e)[0], cut_paste(topo, i, hub, e))


class TestInducedSubtree:
    def test_all_leaves_is_identity(self):
        topo = caterpillar(6)
        assert topologies_equal(induced_subtree(topo, range(1, 7)), binary(topo))

    def test_balanced_eight_leaf_selection(self):
        topo = TreeTopology(
            range(1, 9),
            [
                (9, 10), (10, 1), (10, 2), (9, 11), (11, 3), (11, 4),
                (9, 12), (12, 13), (13, 5), (13, 6), (12, 14), (14, 7), (14, 8),
            ],
        )
        got = induced_subtree(topo, [1, 2, 3, 5])
        expected = TreeTopology([1, 2, 3, 5], [(1, 6), (2, 6), (6, 7), (3, 7), (5, 7)])
        assert topologies_equal(got, expected)

    def test_pair_contracts_to_single_edge(self):
        topo = caterpillar(6)
        got = induced_subtree(topo, [1, 6])
        assert got.edges == ((1, 6),)

    def test_too_few(self):
        with pytest.raises(TooFewLeaves):
            induced_subtree(caterpillar(4), [2])


class TestClosestRelativeMatching:
    def _seven_leaf_tree(self):
        return TreeTopology(
            range(1, 8),
            [(1, 8), (8, 9), (9, 3), (9, 4), (8, 10), (10, 2), (10, 11),
             (11, 5), (11, 12), (12, 6), (12, 7)],
        )

    def test_six_member_subset(self):
        got = closest_relative_matching(self._seven_leaf_tree(), [1, 2, 3, 4, 5, 6])
        assert got == [(1, 2), (3, 4), (5, 6)]

    def test_four_member_subset(self):
        got = closest_relative_matching(self._seven_leaf_tree(), [1, 3, 5, 2])
        assert got == [(1, 3), (2, 5)]

    def test_pair_is_itself(self):
        assert closest_relative_matching(caterpillar(5), [2, 4]) == [(2, 4)]

    def test_odd_subset(self):
        with pytest.raises(OddSubset):
            closest_relative_matching(caterpillar(5), [1, 2, 3])

    def test_degree_four_star_rejected(self):
        star = TreeTopology([1, 2, 3, 4], [(k, 5) for k in range(1, 5)])
        with pytest.raises(MalformedTree, match="^matching needs internal degree 3$"):
            closest_relative_matching(star, [1, 2])

    def test_internal_member_rejected(self):
        with pytest.raises(UnknownLeaf, match="^6 is not a leaf of the tree$"):
            closest_relative_matching(caterpillar(5), [1, 6])

    def test_eight_leaf_interleaved(self):
        topo = TreeTopology(
            range(1, 9),
            [(1, 9), (9, 10), (10, 11), (11, 2), (9, 12), (12, 3), (12, 6),
             (11, 5), (10, 13), (13, 14), (14, 4), (13, 7), (14, 8)],
        )
        got = closest_relative_matching(topo, [1, 2, 3, 4, 5, 6])
        assert got == [(1, 4), (2, 5), (3, 6)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.none())
    @example(seed=0, n=70)  # above the width of an int64 leaf bitmask
    def test_paths_pairwise_edge_disjoint(self, seed, n):
        rng = philox(seed)
        if n is None:
            n = int(rng.integers(4, 11))
        topo = random_topology(n, rng)
        size = 2 * int(rng.integers(1, n // 2 + 1))
        subset = sorted(rng.choice(range(1, n + 1), size=size, replace=False).tolist())
        pairs = closest_relative_matching(topo, subset)
        assert sorted(itertools.chain.from_iterable(pairs)) == subset
        edge_sets = [frozenset(path(topo, i, j)) for i, j in pairs]
        for a, b in itertools.combinations(edge_sets, 2):
            assert not a & b

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 10**6))
    def test_folded_walk_matches_pull_reference(self, n, seed):
        rng = philox(seed)
        topo = random_topology(n, rng)
        flat = list(rng.random(n) < 0.5)  # 0-d: one subset
        shapes = [(), (5, 1), (1, 4), (5, 4)]  # broadcast: 20 subsets
        mixed = [rng.random(shapes[rng.integers(4)]) < 0.5 for _ in range(n)]
        for members in (flat, mixed):
            got = list(_matching_pairs(topo, members))
            want = [mine * (n + 1) + child for mine, child in _pull_matching_pairs(topo, members)]
            assert len(got) == len(want)
            for index, reference in zip(got, want):
                np.testing.assert_array_equal(index, reference, strict=True)


def _pull_matching_pairs(topology, members):
    """Reference matching: each node pulls its children's carried leaf
    positions (``n`` for none) through its neighbours but its parent, in
    ascending order, and yields its own and its last child's."""
    n = topology.leaf_count
    leaf_pos = {leaf: k for k, leaf in enumerate(topology.leaves)}
    order, parent = _postorder(topology._adjacency, topology.leaves[0])
    pending = {}
    for v in order:
        carried = np.where(members[leaf_pos[v]], leaf_pos[v], n) if v in leaf_pos else n
        children = [w for w in topology.neighbors(v) if w != parent[v]]
        for w in children:
            child = pending.pop(w)
            if w == children[-1]:
                yield carried, child
            closes = (carried < n) & (child < n)
            carried = np.where(closes, n, np.minimum(carried, child))
        pending[v] = carried


class TestContractEdge:
    def test_weighted_contraction_drops_edge(self):
        wt = four_leaf_example()
        merged = contract_edge(wt, (5, 6))
        assert len(merged.topology.edges) == 4
        assert not merged.topology.is_binary()

    def test_pendant_edge_rejected(self):
        with pytest.raises(InvalidCut):
            contract_edge(four_leaf_example(), (1, 5))


class TestCanonicalForm:
    def test_distinct_four_leaf_splits_differ(self):
        a = TreeTopology([1, 2, 3, 4], [(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])
        b = TreeTopology([1, 2, 3, 4], [(1, 5), (3, 5), (5, 6), (2, 6), (4, 6)])
        assert not topologies_equal(a, b)
        assert topologies_equal(a, a)

    def test_diameter(self):
        # 6-leaf caterpillar: 4 spine internals, so the outer leaves are 5 apart
        assert diameter(caterpillar(6)) == 5
        assert diameter(TreeTopology([1, 2], [(1, 2)])) == 1
        assert diameter(TreeTopology([1], [])) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_diameter_is_the_longest_incidence_row(self, seed):
        # the walk's fold against the path-edge counts of every leaf pair, on
        # binary, contracted (degree >= 4) and subdivided (degree-2) trees
        rng = philox(700 + seed)
        for n in (1, 2, 3, 5, 9, 17, 33, 64):
            base = random_topology(n, rng)
            shapes = [base, reshaped(base, rng, 2, 0), reshaped(base, rng, 0, 3)]
            if n >= 4:
                shapes.append(chained_and_contracted(rng, n))
            for topo in shapes:
                assert diameter(topo) == _path_incidence(topo).sum(axis=1).max(initial=0)

    def test_diameter_memory_is_bounded(self):
        # the incidence table would be (130816, 1021) booleans, ~134 MB
        topo = random_topology(512, philox(512))
        assert peak_bytes(lambda: diameter(topo)) < 1_000_000

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 10**6),
        same_base=st.booleans(),
        extra_leaf=st.booleans(),
        shape=st.tuples(*[st.integers(0, 2)] * 4),
    )
    # equal by construction: the base subdivided twice against the base itself
    @example(n=24, seed=0, same_base=True, extra_leaf=False, shape=(0, 2, 0, 0))
    @example(n=40, seed=0, same_base=True, extra_leaf=False, shape=(0, 2, 0, 0))
    # unequal as these seeds draw: each side contracts a different internal edge
    @example(n=24, seed=1, same_base=True, extra_leaf=False, shape=(1, 2, 1, 1))
    @example(n=40, seed=0, same_base=True, extra_leaf=False, shape=(1, 2, 1, 1))
    def test_split_sets_agree_with_quartet_sets(self, n, seed, same_base, extra_leaf, shape):
        rng = philox(seed)
        base = random_topology(n, rng)
        other = base if same_base else random_topology(n + extra_leaf, rng)
        a = reshaped(base, rng, shape[0], shape[1])
        b = reshaped(other, rng, shape[2], shape[3])
        expected = a.leaves == b.leaves and canonical_splits(a) == canonical_splits(b)
        assert topologies_equal(a, b) == expected
        assert topologies_equal(a, a)

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_path_incidence_rows_are_paths(self, n):
        rng = philox(n)
        # n = 40 has 77 edges, more than an int64 bitset holds
        for topo in (random_topology(n, rng), reshaped(random_topology(n, rng), rng, 2, 2)):
            incidence = _path_incidence(topo)
            pairs = list(itertools.combinations(topo.leaves, 2))
            assert incidence.shape == (len(pairs), len(topo.edges))
            for (i, j), row in zip(pairs, incidence):
                assert {topo.edges[k] for k in np.flatnonzero(row)} == set(path(topo, i, j))


class TestSide:
    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_side_is_the_component_beyond_the_edge(self, n):
        rng = philox(n)
        for topo in (random_topology(n, rng), reshaped(random_topology(n, rng), rng, 2, 2)):
            for a, b in itertools.chain(topo.edges, ((v, u) for u, v in topo.edges)):
                beyond = component_nodes(topo, b, [(a, b)])
                want = [leaf in beyond for leaf in topo.leaves]
                assert _side(topo, a, b).tolist() == want


class TestTopologyCache:
    @staticmethod
    def built_three_ways():
        rng = philox(12)
        tree = random_weighted_tree(9, rng)
        topo = tree.topology
        u, v = next(e for e in topo.edges if topo.is_leaf(e[0]))
        target = next(e for e in topo.edges if v not in e and u not in e)
        return {
            "constructor": TreeTopology(topo.leaves, topo.edges),
            "normalize": normalize(tree).topology,
            "cut_paste": cut_paste(topo, u, v, target),
        }

    @pytest.mark.parametrize("how", ["constructor", "normalize", "cut_paste"])
    def test_split_table_is_built_once_and_read_only(self, how):
        topo = self.built_three_ways()[how]
        assert topo._splits is None  # filled on first read, by _edge_splits only
        splits = _edge_splits(topo)
        assert topo._splits is splits and _edge_splits(topo) is splits
        with pytest.raises(AttributeError):
            topo._splits = None
        with pytest.raises(ValueError):
            splits[0, 0] = not splits[0, 0]
        with pytest.raises(ValueError):
            _side(topo, *topo.edges[0])[0] = True

    def test_kept_walk_is_the_walk_from_the_smallest_leaf_by_position(self):
        rng = philox(28)
        contracted = random_topology(9, rng)
        for _ in range(2):  # each contraction of an internal edge leaves a degree-4 node or more
            inner = [e for e in contracted.edges if not any(map(contracted.is_leaf, e))]
            contracted = contract_edge(contracted, inner[int(rng.integers(len(inner)))])
        chained = chained_and_contracted(rng, 12)
        cuts = [  # every third cut of a chained tree, each pasted at every target on v's side
            (_detach(chained, u, v), component_nodes(chained, v, [(u, v)]))
            for u, v in [*chained.edges, *((b, a) for a, b in chained.edges)][::3]
            if chained.degree(v) != 2
        ]
        assert any(cut.spliced for cut, _ in cuts)
        weighted = WeightedTree(contracted, {e: 0.5 for e in contracted.edges})
        topologies = [
            TreeTopology([3], []),
            TreeTopology([2, 5], [(2, 5)]),
            TreeTopology([1, 2, 3], [(1, 4), (4, 5), (2, 5), (3, 5)]),  # 4 has degree 2
            TreeTopology([1, 2, 3, 4], [(1, 7), (7, 5), (2, 5), (5, 6), (3, 6), (6, 8), (8, 4)]),
            contracted,
            chained,
            *(random_topology(n, rng) for n in (3, 4, 11, 40)),
            *self.built_three_ways().values(),
            *(
                _attach(cut, (r, s))[0]
                for cut, v_side in cuts
                for r, s in chained.edges
                if r in v_side and s in v_side
            ),
            normalize(weighted).topology,  # splits the degree-4 nodes
            normalize(random_weighted_tree(17, rng)).topology,
            parse_tree("((1:0.5,2:-0.3,3:0.7):0.9,(4:0.2,5:0.6,6:-0.8,7:0.4):0.3,8:0.5);").topology,
            parse_tree("(((2:0.5,(9:0.4,1:0.3):0.2):0.9):0.8,5:0.1,(3:0.2,4:0.6):0.7);").topology,
        ]
        assert max(contracted.degree(v) for v in contracted.nodes) >= 4
        for topo in topologies:
            order, row, up, first, leaf_rows = topo._walk
            walked, parent = _postorder(topo._adjacency, topo.leaves[0])
            assert order == walked
            assert row == {v: k for k, v in enumerate(order)}
            assert len(up) == len(order) - 1
            assert [order[p] for p in up] == [parent[v] for v in order[:-1]]
            for k, v in enumerate(order):
                blocked = [(v, order[up[k]])] if k < len(up) else []
                assert frozenset(order[first[k] : k + 1]) == component_nodes(topo, v, blocked)
                assert len(order[first[k] : k + 1]) == len(component_nodes(topo, v, blocked))
            assert [order[r] for r in leaf_rows] == list(topo.leaves)
        assert _edge_splits(topologies[0]).shape == (0, 1)


def every_model_kind():
    tree = random_weighted_tree(5, np.random.default_rng(0), 0.3, 0.8)
    return {
        "topology": tree.topology,
        "tree": tree,
        "forest": WeightedForest([tree]),
        "correlations": correlations(tree),
    }


class TestImmutability:
    @pytest.mark.parametrize("kind", sorted(every_model_kind()))
    def test_attributes_cannot_be_rebound_or_deleted(self, kind):
        model = every_model_kind()[kind]
        if kind == "topology":
            _edge_splits(model)  # a filled split table is read-only too
        if kind == "correlations":
            _dense(model)  # and so is a filled matrix
        for name in type(model).__slots__:
            value = getattr(model, name)
            with pytest.raises(AttributeError, match="read-only"):
                setattr(model, name, value)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(model, name)
            assert getattr(model, name) is value
        with pytest.raises(AttributeError):
            model.extra = 1

    def test_rebinding_the_weights_leaves_the_distribution_alone(self):
        tree = random_weighted_tree(5, np.random.default_rng(0), 0.3, 0.8)
        alpha = correlations(tree)
        with pytest.raises(AttributeError):
            tree.theta = {e: 3.0 for e in tree.topology.edges}
        with pytest.raises(AttributeError):
            alpha.values = np.full(len(alpha.values), 5.0)
        table = marginal_distribution(tree)
        assert table.min() >= 0.0 and abs(table.sum() - 1.0) < 1e-12
        assert np.abs(alpha.values).max() <= 0.8

    def test_forest_pickles_and_copies_through_its_constructor(self):
        forest = every_model_kind()["forest"]
        for back in (pickle.loads(pickle.dumps(forest)), copy.copy(forest), copy.deepcopy(forest)):
            assert back.leaves == forest.leaves
            (comp,) = back.components
            assert comp.topology.edges == forest.components[0].topology.edges
            assert comp.theta == forest.components[0].theta

    def test_weights_are_read_only(self):
        tree = random_weighted_tree(5, np.random.default_rng(0), 0.3, 0.8)
        edge = tree.topology.edges[0]
        with pytest.raises(TypeError):
            tree.theta[edge] = 3.0
        assert tree.weight(*edge) == tree.theta[edge] <= 0.8

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_pickle_round_trip_keeps_values_and_read_only_arrays(self, n):
        tree = random_weighted_tree(n, philox(40 + n), -1.0, 1.0)
        splits = _edge_splits(tree.topology)
        back = pickle.loads(pickle.dumps(tree))
        assert (back.leaves, back.topology.edges) == (tree.leaves, tree.topology.edges)
        assert back.theta == tree.theta
        with pytest.raises(TypeError):
            back.theta[(0, 1)] = 0.5
        again = _edge_splits(back.topology)
        assert again.tobytes() == splits.tobytes() and not again.flags.writeable
        alpha = correlations(tree)
        copied = pickle.loads(pickle.dumps(alpha))
        assert copied.labels == alpha.labels
        assert copied.values.tobytes() == alpha.values.tobytes()
        assert not copied.values.flags.writeable

    def test_unpickling_validates(self):
        tree = random_weighted_tree(4, philox(43), 0.3, 0.8)
        weight = struct.pack(">d", tree.theta[tree.topology.edges[0]])
        tampered = pickle.dumps(tree).replace(weight, struct.pack(">d", 3.0))
        with pytest.raises(MalformedTree, match="outside \\[-1, 1\\]"):
            pickle.loads(tampered)
        alpha = correlations(tree)
        tampered = pickle.dumps(alpha).replace(alpha.values[:1].tobytes(), struct.pack("=d", 2.0))
        with pytest.raises(UnknownPair, match="outside"):
            pickle.loads(tampered)


class TestQuartetProducts:
    def test_rows_match_scalar_products_and_split_on_exact_ties(self):
        rng = philox(8)
        labels = list(range(1, 8))
        # magnitudes from a set closed under exact products, so many splits tie exactly
        alpha = CorrelationVector(labels, rng.choice([0.25, -0.5, 0.5, 1.0], size=21))
        ties = 0
        for q in itertools.combinations(labels, 4):
            want = [
                abs(alpha.get(q[a], q[b])) * abs(alpha.get(q[c], q[d]))
                for a, b, c, d in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))
            ]
            # the first product within the relative tolerance of the largest wins
            first = next(k for k, p in enumerate(want) if p >= max(want) * (1 - TIE_TOLERANCE))
            assert _pairing(alpha, q) == (want, first)
            assert quartet_gap(alpha, q) == max(want) - min(want)
            ties += want.count(max(want)) > 1
        assert ties > 0

    def test_splits_ignore_a_common_scale(self):
        # distant leaves' products fall far below any absolute tolerance, yet a
        # common factor changes no comparison between them
        for seed in range(3):
            alpha = correlations(random_weighted_tree(16, np.random.default_rng(seed), 0.3, 0.8))
            scaled = CorrelationVector(alpha.labels, alpha.values * 1e-7)
            for q in itertools.combinations(alpha.labels, 4):
                assert _pairing(scaled, q)[1] == _pairing(alpha, q)[1]

    def test_uncovered_leaf_rejected(self):
        alpha = correlations(four_leaf_example())
        with pytest.raises(UnknownLeaf):
            quartet_gap(alpha, (1, 2, 3, 9))

    def test_pairing_pinned_over_a_seeded_quartet_corpus(self):
        """Bit for bit: every quartet's three products and its winner, over
        vectors with exactly tied magnitudes, path products, and a
        1e-7-scaled copy of each."""
        digest, ties = hashlib.sha256(), 0
        for n in range(8, 17):
            rng = philox(300 + n)
            size = n * (n - 1) // 2
            tied = rng.choice([0.25, 0.5, 1.0], size) * rng.choice([-1.0, 1.0], size)
            vectors = [
                CorrelationVector(range(1, n + 1), tied),
                correlations(random_weighted_tree(n, rng, -1.0, 1.0)),
            ]
            vectors += [CorrelationVector(v.labels, v.values * 1e-7) for v in vectors]
            for alpha in vectors:
                for q in itertools.combinations(alpha.labels, 4):
                    products, winner = _pairing(alpha, q)
                    digest.update(struct.pack("<3dB", *products, winner))
                    ties += products.count(max(products)) > 1
        assert ties > 0
        assert digest.hexdigest() == (
            "3da2a266d498d50c54853d8d5f88196f4aa4f8e079376321a242e19ca46314ab"
        )
