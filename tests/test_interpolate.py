"""Topology interpolation: moves, bounds, and the factorization identity."""

import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_ising import (
    AlreadyCherry,
    CorrelationVector,
    LeafSetMismatch,
    TreeTopology,
    WeightedTree,
    canonical_splits,
    closest_relative_matching,
    correlations,
    diameter,
    induced_subtree,
    interpolate,
    is_cherry,
    path_removed,
    quartet_gap,
    random_topology,
    sequence,
    topologies_equal,
    trace_to_json,
)
from latent_ising.distribution import _parity, closed_form_distribution
from latent_ising.trees import _attach

from conftest import caterpillar, philox, random_model

CAT4 = TreeTopology([1, 2, 3, 4], [(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])
FLIP4 = TreeTopology([1, 2, 3, 4], [(1, 5), (3, 5), (5, 6), (2, 6), (4, 6)])


def unit_weighted(topo: TreeTopology, value: float = 0.5) -> WeightedTree:
    return WeightedTree(topo, {e: value for e in topo.edges})


def structural_quartet_diff(before: TreeTopology, after: TreeTopology):
    """Independent oracle for the changed-quartet sets: compare resolved splits."""
    splits_before = {frozenset(s[0]) | frozenset(s[1]): s for s in canonical_splits(before)}
    splits_after = {frozenset(s[0]) | frozenset(s[1]): s for s in canonical_splits(after)}
    changed = set()
    for q in itertools.combinations(before.leaves, 4):
        key = frozenset(q)
        if splits_before.get(key) != splits_after.get(key):
            changed.add(tuple(sorted(q)))
    return changed


def factorization_residual(before, after, changed, alpha):
    """Max config deviation between the step difference and its quartet sum."""
    n = before.leaf_count
    masks = np.arange(2 ** n)
    pos = {leaf: k for k, leaf in enumerate(before.leaves)}
    rhs = np.zeros(2 ** n)
    for q in changed:
        match_before = closest_relative_matching(before, q)
        match_after = closest_relative_matching(after, q)
        coef_before = float(np.prod([alpha.get(i, j) for i, j in match_before]))
        coef_after = float(np.prod([alpha.get(i, j) for i, j in match_after]))
        restricted = path_removed(alpha, before, q)
        table = closed_form_distribution(before, restricted)
        qmask = sum(1 << pos[leaf] for leaf in q)
        chi = 1.0 - 2.0 * _parity(~masks & qmask)
        rhs += (coef_before - coef_after) * chi * table
    lhs = closed_form_distribution(before, alpha) - closed_form_distribution(after, alpha)
    return float(np.max(np.abs(lhs - rhs)))


class TestCherryAndSequence:
    def test_cherry_examples(self):
        assert is_cherry(CAT4, 1, 2)
        assert not is_cherry(CAT4, 1, 3)
        star = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])
        for i, j in itertools.combinations([1, 2, 3], 2):
            assert is_cherry(star, i, j)

    def test_sequence_single_change_on_short_path(self):
        # path 1 - u - v - 3 has length 3: one no-op re-paste, one real move
        steps = sequence(CAT4, 1, 3)
        assert len(steps) == 2
        assert topologies_equal(steps[0], CAT4)
        assert not topologies_equal(steps[1], CAT4)
        assert is_cherry(steps[-1], 1, 3)

    def test_sequence_walks_every_position(self):
        topo = caterpillar(5)
        steps = sequence(topo, 1, 5)  # path length 4
        assert len(steps) == 3
        assert topologies_equal(steps[0], topo)
        assert is_cherry(steps[-1], 1, 5)
        seen = {canonical_splits(s) for s in steps}
        assert len(seen) == 3

    def test_already_cherry(self):
        with pytest.raises(AlreadyCherry):
            sequence(CAT4, 1, 2)


class TestInterpolate:
    def test_same_topology_no_moves(self):
        alpha = correlations(unit_weighted(CAT4))
        trace = interpolate(CAT4, unit_weighted(CAT4), alpha)
        assert trace.moves == ()
        assert trace.epochs == 0
        assert topologies_equal(trace.final, CAT4)

    def test_four_leaf_flip_changes_single_quartet(self):
        alpha = correlations(unit_weighted(CAT4))
        trace = interpolate(CAT4, unit_weighted(FLIP4), alpha)
        assert trace.epochs == 1
        quartets = [q for move in trace.moves for q in move.changed_quartets]
        assert quartets == [(1, 2, 3, 4)]
        assert topologies_equal(trace.final, FLIP4)

    def test_one_paste_per_recorded_move(self, monkeypatch):
        # interpolate builds the tree that ends each epoch; the first read of
        # trace.topologies pastes every other move once, and later reads none
        module = importlib.import_module("latent_ising.interpolate")
        pastes = []
        real = module._attach
        monkeypatch.setattr(module, "_attach", lambda *args: pastes.append(args) or real(*args))
        rng = philox(51)
        source = random_topology(12, rng)
        target = random_model(12, rng, magnitude=(0.25, 0.85))
        trace = interpolate(source, target, correlations(random_model(12, rng)))
        assert 0 < trace.epochs < len(trace.moves)
        assert len(pastes) == trace.epochs
        topologies = trace.topologies  # pastes the other moves - epochs steps
        assert len(pastes) == len(trace.moves)
        assert trace.topologies is topologies  # a second read pastes nothing
        assert len(pastes) == len(trace.moves)
        assert len(topologies) == len(trace.moves) + 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 24), st.integers(0, 10**6))
    def test_materialized_steps_are_valid_and_independent(self, n, seed):
        def run():
            rng = philox(seed)
            source = random_topology(n, rng)
            target = random_model(n, rng, magnitude=(0.25, 0.85))
            return interpolate(source, target, correlations(random_model(n, rng)))

        trace = run()
        for topology in trace.topologies:
            assert TreeTopology(topology.leaves, topology.edges).edges == topology.edges
            assert topology.is_binary()
        # pasting in reverse order first shows no paste mutates the shared cut
        fresh = run()
        backwards = [
            step if isinstance(step, TreeTopology) else _attach(*step)
            for step in reversed(fresh.steps)
        ]
        want = [topology.edges for topology in trace.topologies]
        assert [topology.edges for topology in reversed(backwards)] == want
        assert [topology.edges for topology in fresh.topologies] == want
        assert trace.final.edges == trace.topologies[-1].edges

    def test_leaf_set_mismatch(self):
        other = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])
        alpha = correlations(unit_weighted(CAT4))
        with pytest.raises(LeafSetMismatch):
            interpolate(CAT4, unit_weighted(other), alpha)

    def test_trace_json_summary(self):
        alpha = correlations(unit_weighted(CAT4))
        payload = trace_to_json(interpolate(CAT4, unit_weighted(FLIP4), alpha))
        assert payload["epochs"] == 1
        assert payload["total_changed_quartets"] == 1

    def test_random_pairs_full_battery(self):
        rng = philox(50)
        for trial in range(30):
            n = int(rng.integers(4, 11))
            source = random_topology(n, rng)
            target = random_model(n, rng, magnitude=(0.25, 0.85))
            alpha = correlations(
                WeightedTree(source, {e: 0.5 for e in source.edges})
            )
            trace = interpolate(source, target, alpha)
            assert topologies_equal(trace.final, target.topology)
            assert trace.epochs <= n
            d = diameter(target.topology)
            assert trace.rounds <= math.ceil(d / 2)
            assert sum(len(m.changed_quartets) for m in trace.moves) <= d * n ** 4
            # recorded changed-quartet sets match the structural oracle
            for k, move in enumerate(trace.moves):
                before, after = trace.topologies[k], trace.topologies[k + 1]
                assert set(move.changed_quartets) == structural_quartet_diff(before, after)
            # no quartet flips twice within one epoch
            for _, epoch_moves in itertools.groupby(trace.moves, key=lambda m: m.epoch):
                seen = set()
                for move in epoch_moves:
                    assert not seen & move.changed_quartets
                    seen |= move.changed_quartets
            # a leaf moves in at most one epoch per round
            for _, round_moves in itertools.groupby(trace.moves, key=lambda m: m.round):
                blocks = {}
                for move in round_moves:
                    blocks.setdefault(move.epoch, set()).update(move.block)
                for a, b in itertools.combinations(blocks.values(), 2):
                    assert not a & b

    def test_fixed_blocks_stay_target_shaped(self):
        rng = philox(51)
        for trial in range(10):
            n = int(rng.integers(5, 9))
            source = random_topology(n, rng)
            target = random_model(n, rng, magnitude=(0.3, 0.8))
            alpha = correlations(WeightedTree(source, {e: 0.5 for e in source.edges}))
            trace = interpolate(source, target, alpha)
            last_move_of_epoch = {m.epoch: k for k, m in enumerate(trace.moves)}
            for epoch, k in last_move_of_epoch.items():
                fixed = trace.moves[k].block | trace.moves[k].anchor
                if len(fixed) < 2:
                    continue
                want = induced_subtree(target.topology, fixed)
                for later in trace.topologies[k + 1 :]:
                    assert topologies_equal(induced_subtree(later, fixed), want)

    def test_factorization_identity_spot(self):
        rng = philox(52)
        worst = 0.0
        for trial in range(6):
            n = int(rng.integers(4, 8))
            source = random_topology(n, rng)
            target = random_model(n, rng, magnitude=(0.3, 0.8))
            alpha = CorrelationVector(
                range(1, n + 1), rng.uniform(-1, 1, n * (n - 1) // 2)
            )
            trace = interpolate(source, target, alpha)
            for k, move in enumerate(trace.moves):
                worst = max(
                    worst,
                    factorization_residual(
                        trace.topologies[k],
                        trace.topologies[k + 1],
                        move.changed_quartets,
                        alpha,
                    ),
                )
        assert worst <= 1e-9

    def test_exact_tie_flip_changes_only_zero_gap_quartets(self):
        # both topologies realize the same correlations through a unit edge,
        # so every changed quartet must be an exact product tie
        theta = {(1, 5): 0.7, (2, 5): 0.6, (5, 6): 1.0, (3, 6): 0.5, (4, 6): 0.9}
        source_model = WeightedTree(CAT4, theta)
        alpha = correlations(source_model)
        target_theta = {(1, 5): 0.7, (3, 5): 0.5, (5, 6): 1.0, (2, 6): 0.6, (4, 6): 0.9}
        target = WeightedTree(FLIP4, target_theta)
        assert alpha.max_abs_difference(correlations(target)) == pytest.approx(0.0)
        trace = interpolate(CAT4, target, alpha)
        for move in trace.moves:
            assert move.max_gap <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 14), st.integers(0, 10**6))
    def test_moves_are_four_block_products(self, n, seed):
        rng = philox(seed)
        source = random_topology(n, rng)
        # magnitudes from a set closed under exact products, so gaps tie exactly
        magnitudes = [0.25, 0.5, 1.0]
        target_topology = random_topology(n, rng)
        target = WeightedTree(
            target_topology,
            {e: float(rng.choice(magnitudes)) for e in target_topology.edges},
        )
        signs = rng.choice([-1.0, 1.0], size=n * (n - 1) // 2)
        alpha = CorrelationVector(source.leaves, signs * rng.choice(magnitudes, size=signs.size))
        trace = interpolate(source, target, alpha)
        for move in trace.moves:
            assert len(move.blocks) == 4
            assert all(block and list(block) == sorted(block) for block in move.blocks)
            assert sorted(leaf for block in move.blocks for leaf in block) == list(source.leaves)
            changed = move.changed_quartets
            assert move.quartet_count == len(changed)
            assert move.max_gap == max(quartet_gap(alpha, q) for q in changed)
