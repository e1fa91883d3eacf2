"""Forest reconstruction against its ground-truth contract."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_ising import (
    BadParameter,
    CorrelationVector,
    TreeTopology,
    WeightedTree,
    binary,
    contract_edge,
    correlations,
    fit_known,
    random_topology,
    random_weighted_tree,
    reconstruct_forest,
    topologies_equal,
)
from latent_ising import reconstruct
from latent_ising.reconstruct import _build_component, _contract_high_implied

from conftest import caterpillar, check_contract, philox, random_model


class TestReconstruction:
    def test_exact_caterpillar_single_component(self):
        topo = caterpillar(6)
        rng = philox(31)
        truth = WeightedTree(topo, {e: float(rng.uniform(0.4, 0.6)) for e in topo.edges})
        alpha = correlations(truth)
        rec = reconstruct_forest(alpha, xi=0.05, eta=1e-6)
        assert len(rec.components) == 1
        assert topologies_equal(rec.components[0], binary(topo))
        check_contract(rec, alpha, truth)

    def test_weak_bridge_splits_two_stars(self):
        edges = [(1, 7), (2, 7), (3, 7), (7, 8), (4, 8), (5, 8), (6, 8)]
        topo = TreeTopology(range(1, 7), edges)
        theta = {e: 0.6 for e in topo.edges}
        theta[(7, 8)] = 0.01
        truth = WeightedTree(topo, theta)
        alpha = correlations(truth)
        rec = reconstruct_forest(alpha, xi=0.08, eta=0.02)
        assert rec.leaf_sets() == (frozenset({1, 2, 3}), frozenset({4, 5, 6}))
        check_contract(rec, alpha, truth)

    def test_near_unit_edge_may_contract(self):
        topo = caterpillar(6)
        rng = philox(32)
        theta = {e: float(rng.uniform(0.4, 0.6)) for e in topo.edges}
        near_unit = (8, 9)  # middle spine edge
        theta[near_unit] = 0.999
        truth = WeightedTree(topo, theta)
        alpha = correlations(truth)
        rec = reconstruct_forest(alpha, xi=0.05, eta=1e-6)
        assert len(rec.components) == 1
        component = rec.components[0]
        assert not component.is_binary()  # the tie collapsed to a higher-degree node
        check_contract(rec, alpha, truth)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_cluster_contraction_matches_edge_by_edge(self, seed):
        # unit weights on 2-4 adjacent internal edges (a cluster of >= 3 nodes),
        # plus up to two more anywhere: merging each cluster at once must equal
        # contracting the edges one at a time, then removing degree-2 nodes
        rng = philox(seed)
        topo = random_topology(int(rng.integers(6, 13)), rng)
        internal = [e for e in topo.edges if not (topo.is_leaf(e[0]) or topo.is_leaf(e[1]))]
        flagged = {internal[int(rng.integers(len(internal)))]}
        for _ in range(int(rng.integers(1, 4))):
            touched = set(itertools.chain.from_iterable(flagged))
            nearby = [e for e in internal if e not in flagged and touched.intersection(e)]
            if nearby:
                flagged.add(nearby[int(rng.integers(len(nearby)))])
        assert len(flagged) >= 2
        for _ in range(int(rng.integers(0, 3))):
            flagged.add(internal[int(rng.integers(len(internal)))])
        theta = {e: 1.0 if e in flagged else float(rng.uniform(0.3, 0.8)) for e in topo.edges}
        strength = correlations(WeightedTree(topo, theta)).abs()

        current, rename = topo, {v: v for v in topo.nodes}
        for u, v in sorted(flagged):
            a, b = sorted((rename[u], rename[v]))
            current = contract_edge(current, (a, b))
            rename = {key: a if val == b else val for key, val in rename.items()}
        got = _contract_high_implied(topo, strength, 0.05)
        assert len(got.edges) == len(topo.edges) - len(flagged)
        assert got.edges == binary(current).edges

    def test_bad_parameters(self):
        alpha = correlations(random_model(4, philox(1)))
        for eta in (-0.01, float("nan")):
            with pytest.raises(BadParameter):
                reconstruct_forest(alpha, xi=0.1, eta=eta)
        with pytest.raises(BadParameter):
            reconstruct_forest(alpha, xi=1.5, eta=0.01)

    def test_split_floor_is_twice_eta(self):
        # a pair joins one component exactly when its |alpha_hat| exceeds 2*eta
        for value, parts in ((0.1, 2), (-0.1, 2), (0.1 + 1e-12, 1), (-0.1 - 1e-12, 1)):
            rec = reconstruct_forest(CorrelationVector([1, 2], [value]), xi=0.2, eta=0.05)
            assert len(rec.components) == parts

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_partition_holds_for_arbitrary_vectors(self, seed):
        rng = philox(seed)
        n = int(rng.integers(2, 10))
        alpha = CorrelationVector(range(1, n + 1), rng.uniform(-1, 1, n * (n - 1) // 2))
        rec = reconstruct_forest(alpha, xi=0.2, eta=0.05)
        scattered = sorted(itertools.chain.from_iterable(rec.leaf_sets()))
        assert scattered == list(range(1, n + 1))
        for set_a, set_b in itertools.combinations(rec.leaf_sets(), 2):
            assert all(abs(alpha.get(i, j)) <= 2 * 0.05 for i in set_a for j in set_b)
        for component in rec.components:
            internal = [v for v in component.nodes if not component.is_leaf(v)]
            assert all(component.degree(v) >= 3 for v in internal)

    def test_idempotent_on_own_output(self):
        truth = random_model(7, philox(33), magnitude=(0.35, 0.75))
        alpha = correlations(truth)
        rec = reconstruct_forest(alpha, xi=0.05, eta=1e-6)
        assert len(rec.components) == 1
        fitted = fit_known(rec.components[0], alpha, 1e-6).tree
        again = reconstruct_forest(correlations(fitted), xi=0.05, eta=1e-6)
        assert len(again.components) == 1
        assert topologies_equal(again.components[0], rec.components[0])

    def test_deterministic(self):
        truth = random_model(8, philox(34), magnitude=(0.3, 0.8))
        alpha = correlations(truth)
        a = reconstruct_forest(alpha, xi=0.05, eta=1e-4)
        b = reconstruct_forest(alpha, xi=0.05, eta=1e-4)
        assert all(
            topologies_equal(x, y) for x, y in zip(a.components, b.components)
        )

    def test_common_scale_changes_nothing(self):
        for seed in range(3):
            alpha = correlations(random_weighted_tree(16, np.random.default_rng(seed), 0.3, 0.8))
            scaled = CorrelationVector(alpha.labels, alpha.values * 1e-7)
            want = reconstruct_forest(alpha, 0.01, 0.0).components
            got = reconstruct_forest(scaled, 0.01, 0.0).components
            assert [(c.leaves, c.edges) for c in got] == [(c.leaves, c.edges) for c in want]

    @pytest.mark.parametrize("seed", [0, 7, 9])
    def test_exact_input_recovers_a_128_leaf_tree(self, seed):
        # distant leaves' cross-products are far below 1e-12 here, so an
        # absolute tie tolerance would send the insertion walk the wrong way
        truth = random_weighted_tree(128, np.random.default_rng(seed), 0.3, 0.8)
        rec = reconstruct_forest(correlations(truth), 0.01, 0.0)
        assert len(rec.components) == 1
        assert topologies_equal(rec.components[0], truth.topology)

    def test_components_are_pinned(self):
        # exact and noisy input at radii that leave 1-, 2- and 3-leaf
        # components as well as larger ones
        digest = hashlib.sha256()
        sizes = set()
        for seed in range(6):
            rng = philox(400 + seed)
            alpha = correlations(random_model(12, rng, magnitude=(0.2, 0.95), signed=True))
            noise = rng.normal(0.0, 0.05, alpha.values.size)
            noisy = CorrelationVector(alpha.labels, np.clip(alpha.values + noise, -1.0, 1.0))
            for values in (alpha, noisy):
                for xi, eta in ((0.05, 1e-6), (0.2, 0.04), (0.2, 0.15)):
                    rec = reconstruct_forest(values, xi=xi, eta=eta)
                    sizes.update(c.leaf_count for c in rec.components)
                    digest.update(repr([(c.leaves, c.edges) for c in rec.components]).encode())
        assert {1, 2, 3} <= sizes and max(sizes) >= 4
        assert digest.hexdigest() == (
            "a6ea4343876e2a8376522de748c1367eb4ba65a4218ac05b1b91b2e96885a99f"
        )


def _reference_attachment_edge(adj, strength, x):
    """The insertion walk with each direction's leaves gathered afresh at
    every step: the per-direction reference for the one-pass walk."""

    def leaves_beyond(blocked, start):
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

    prev = min(v for v in adj if len(adj[v]) == 1)
    cur = adj[prev][0]
    while True:
        directions = sorted(adj[cur])
        reps = [
            max(leaves_beyond(cur, d), key=lambda u: (strength.get(x, u), -u))
            for d in directions
        ]
        products = []
        for k in range(3):
            other = [reps[i] for i in range(3) if i != k]
            products.append(strength.get(x, reps[k]) * strength.get(other[0], other[1]))
        best = max(products)
        k = next(i for i, p in enumerate(products) if p >= best * (1.0 - 1e-12))
        nxt = directions[k]
        if nxt == prev or len(adj[nxt]) == 1:
            return (cur, nxt)
        prev, cur = cur, nxt


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_insertion_walk_matches_per_direction_reference(monkeypatch, tie_heavy):
    # arbitrary strength vectors, so the walk meets every branch order; the
    # tie-heavy ones make the leaf-number tie break decide most representatives
    rng = philox(41 + tie_heavy)
    cases = []
    for n in range(4, 25):
        for _ in range(3):
            labels = range(1, n + 4)
            size = len(labels) * (len(labels) - 1) // 2
            if tie_heavy:
                values = rng.choice([0.0, 0.25, 0.5, 1.0], size)
            else:
                values = rng.uniform(0.0, 1.0, size)
            members = sorted(int(v) for v in rng.choice(labels, n, replace=False))
            cases.append((CorrelationVector(labels, values), members))
    got = [_build_component(strength, members).edges for strength, members in cases]
    monkeypatch.setattr(reconstruct, "_attachment_edge", _reference_attachment_edge)
    want = [_build_component(strength, members).edges for strength, members in cases]
    assert got == want
