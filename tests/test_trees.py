"""Topology representation, normalization, surgery, and quartet machinery."""

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latent_ising import (
    CorrelationVector,
    InvalidCut,
    MalformedTree,
    OddSubset,
    TooFewLeaves,
    TreeTopology,
    UnknownLeaf,
    UnknownPair,
    WeightedTree,
    binary,
    canonical_splits,
    closest_relative_matching,
    contract_edge,
    correlations,
    cut_paste,
    diameter,
    induced_subtree,
    normalize,
    path,
    quartet_split,
    random_topology,
    random_weighted_tree,
    topologies_equal,
)
from latent_ising.distribution import marginal_distribution
from latent_ising.trees import (
    TIE_TOLERANCE,
    _edge_splits,
    _path_incidence,
    _side,
    component_nodes,
    edge_key,
)

from conftest import caterpillar, four_leaf_example, philox, three_leaf_star


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

    def test_from_pairs_places_each_pair_by_label(self):
        alpha = CorrelationVector.from_pairs([3, 1, 2], {(2, 1): 0.1, (3, 2): -0.4})
        assert (alpha.get(1, 2), alpha.get(1, 3), alpha.get(2, 3)) == (0.1, 0.0, -0.4)

    @pytest.mark.parametrize(
        "pairs, error",
        [
            ({(1, 1): 0.5}, UnknownPair),
            ({(1, 3): 0.1, (2, 2): 0.5}, UnknownPair),
            ({(1, 4): 0.5}, UnknownLeaf),
            ({(0, 2): 0.5}, UnknownLeaf),
        ],
        ids=["self-pair", "self-pair-after-a-pair", "unknown-label", "unknown-first-label"],
    )
    def test_from_pairs_rejects_self_and_unknown_pairs(self, pairs, error):
        with pytest.raises(error):
            CorrelationVector.from_pairs([1, 2, 3], pairs)

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


class TestQuartetSplit:
    def test_four_leaf_example(self):
        alpha = correlations(four_leaf_example())
        qs = quartet_split(alpha, (1, 2, 3, 4))
        assert qs.split == ((1, 2), (3, 4))
        assert qs.gap == pytest.approx(0.0625 - 0.04)

    def test_full_symmetry_breaks_lexicographically(self):
        wt = four_leaf_example()
        unit = WeightedTree(wt.topology, {**wt.theta, (5, 6): 1.0})
        qs = quartet_split(correlations(unit), (4, 3, 2, 1))
        assert qs.split == ((1, 2), (3, 4))
        assert qs.gap == pytest.approx(0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.floats(1e-6, 0.2))
    def test_gap_is_four_eps_lipschitz(self, seed, eps):
        rng = philox(seed)
        base = rng.uniform(-1, 1, 6)
        shifted = np.clip(base + rng.uniform(-eps, eps, 6), -1, 1)
        a = CorrelationVector([1, 2, 3, 4], base)
        b = CorrelationVector([1, 2, 3, 4], shifted)
        actual_eps = a.max_abs_difference(b)
        gap_a = quartet_split(a, (1, 2, 3, 4)).gap
        gap_b = quartet_split(b, (1, 2, 3, 4)).gap
        assert abs(gap_a - gap_b) <= 4 * actual_eps + 1e-12

    def test_two_eps_bound_fails_on_adversarial_pair(self):
        # Both vectors are realizable on the balanced 4-leaf tree and are
        # pairwise within eps, yet the gaps differ by ~4*eps: the additive
        # stability constant of the gap really is 4, not 2.
        eps = 0.1
        a = CorrelationVector.from_pairs(
            [1, 2, 3, 4],
            {(1, 2): 0.9, (3, 4): 0.9, (1, 3): 0.9, (2, 4): 0.9, (1, 4): 0.9, (2, 3): 0.9},
        )
        b = CorrelationVector.from_pairs(
            [1, 2, 3, 4],
            {(1, 2): 1.0, (3, 4): 1.0, (1, 3): 0.8, (2, 4): 0.8, (1, 4): 0.8, (2, 3): 0.8},
        )
        assert a.max_abs_difference(b) == pytest.approx(eps)
        gap_a = quartet_split(a, (1, 2, 3, 4)).gap
        gap_b = quartet_split(b, (1, 2, 3, 4)).gap
        assert abs(gap_a - gap_b) > 2 * eps

    def test_duplicate_leaves_rejected(self):
        alpha = correlations(four_leaf_example())
        with pytest.raises(UnknownPair):
            quartet_split(alpha, (1, 1, 2, 3))


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

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 10**6),
        same_base=st.booleans(),
        extra_leaf=st.booleans(),
        shape=st.tuples(*[st.integers(0, 2)] * 4),
    )
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
            splits = _edge_splits(topo)
            for a, b in itertools.chain(topo.edges, ((v, u) for u, v in topo.edges)):
                beyond = component_nodes(topo, b, [(a, b)])
                want = [leaf in beyond for leaf in topo.leaves]
                assert _side(topo, splits, a, b).tolist() == want


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
            first = next(k for k, p in enumerate(want) if p >= max(want) - TIE_TOLERANCE)
            split = quartet_split(alpha, q)
            assert split.split == (
                ((q[0], q[1]), (q[2], q[3])),
                ((q[0], q[2]), (q[1], q[3])),
                ((q[0], q[3]), (q[1], q[2])),
            )[first]
            assert split.gap == max(want) - min(want)
            ties += want.count(max(want)) > 1
        assert ties > 0

    def test_uncovered_leaf_rejected(self):
        alpha = correlations(four_leaf_example())
        with pytest.raises(UnknownLeaf):
            quartet_split(alpha, (1, 2, 3, 9))
