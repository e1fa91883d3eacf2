"""Topology interpolation: moves, bounds, and the factorization identity."""

import hashlib
import importlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_ising import (
    CorrelationVector,
    LeafSetMismatch,
    TreeTopology,
    WeightedTree,
    closest_relative_matching,
    correlations,
    cut_paste,
    diameter,
    induced_subtree,
    interpolate,
    path_removed,
    quartet_gap,
    random_topology,
    random_weighted_tree,
    topologies_equal,
    trace_to_json,
)
from latent_ising.distribution import closed_form_distribution
from latent_ising.interpolate import Move, _common_neighbor, _epoch_moves
from latent_ising.trees import _attach, _dense, _side

from conftest import canonical_splits, caterpillar, philox, random_model, reference_path

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
        chi = 1.0 - 2.0 * (np.bitwise_count(~masks & qmask) & 1)
        rhs += (coef_before - coef_after) * chi * table
    lhs = closed_form_distribution(before, alpha) - closed_form_distribution(after, alpha)
    return float(np.max(np.abs(lhs - rhs)))


def block_root(topology: TreeTopology, leaves) -> int:
    """The node b of the edge (a, b) whose b side holds exactly ``leaves``."""
    want = np.isin(topology.leaves, sorted(leaves))
    for u, v in topology.edges:
        for a, b in ((u, v), (v, u)):
            if np.array_equal(_side(topology, a, b), want):
                return b
    raise AssertionError(f"no edge detaches exactly {sorted(leaves)}")


def epoch_pastes(topology: TreeTopology, alpha: CorrelationVector, mover: int, anchor: int):
    """Each (blocks, max_gap, built tree, target edge) of one epoch moving
    ``mover`` toward ``anchor``, with |alpha| laid out as ``interpolate`` does."""
    magnitudes = np.abs(_dense(alpha))
    return [
        (blocks, max_gap, _attach(*paste)[0], paste[1])
        for blocks, max_gap, paste in _epoch_moves(topology, mover, anchor, magnitudes)
    ]


class TestCherryAndSequence:
    """The cherry test and the paste sequence of one epoch of ``interpolate``."""

    def test_cherry_examples(self):
        assert _common_neighbor(CAT4, 1, 2) == 5
        assert _common_neighbor(CAT4, 3, 4) == 6
        assert _common_neighbor(CAT4, 1, 3) is None
        star = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])
        for i, j in itertools.combinations([1, 2, 3], 2):
            assert _common_neighbor(star, i, j) == 4

    def test_sequence_single_change_on_short_path(self):
        # path 1 - 5 - 6 - 3 has length 3: the one paste makes 1 and 3 a cherry
        alpha = correlations(unit_weighted(CAT4))
        ((blocks, max_gap, built, target),) = epoch_pastes(CAT4, alpha, 1, 3)
        assert blocks == ((1,), (2,), (4,), (3,)) and target == (6, 3)
        assert max_gap == quartet_gap(alpha, (1, 2, 3, 4))
        assert topologies_equal(built, cut_paste(CAT4, 1, 5, target))
        assert not topologies_equal(built, CAT4)
        assert _common_neighbor(built, 1, 3) is not None

    def test_sequence_walks_every_position(self):
        topo = caterpillar(5)  # path 1 - 6 - 7 - 8 - 5 has length 4
        alpha = correlations(unit_weighted(topo))
        pastes = epoch_pastes(topo, alpha, 1, 5)
        assert [(blocks, target) for blocks, _, _, target in pastes] == [
            (((1,), (2,), (3,), (4, 5)), (7, 8)),
            (((1,), (2, 3), (4,), (5,)), (8, 5)),
        ]
        for _, _, built, target in pastes:
            assert topologies_equal(built, cut_paste(topo, 1, 6, target))
        seen = {canonical_splits(t) for t in [topo] + [built for _, _, built, _ in pastes]}
        assert len(seen) == 3
        assert _common_neighbor(pastes[-1][2], 1, 5) is not None


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
            step if isinstance(step, TreeTopology) else _attach(*step)[0]
            for step in reversed(fresh.steps)
        ]
        want = [topology.edges for topology in trace.topologies]
        assert [topology.edges for topology in reversed(backwards)] == want
        assert [topology.edges for topology in fresh.topologies] == want
        assert trace.final.edges == trace.topologies[-1].edges

    def test_epochs_build_no_split_table(self):
        # each epoch reads its path and leaf positions off the kept walk, so
        # no tree the trace keeps has built its edge-split table
        rng = philox(20)
        source = random_topology(20, rng)
        target = random_model(20, rng, magnitude=(0.25, 0.85))
        trace = interpolate(source, target, correlations(random_model(20, rng)))
        built = [step for step in trace.steps if isinstance(step, TreeTopology)]
        assert trace.epochs > 1 and len(built) == trace.epochs + 1
        assert all(topology._splits is None for topology in built)

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

    @pytest.mark.parametrize("seed", range(4))
    def test_moves_match_side_mask_blocks(self, seed):
        # continuous correlations with exact zeros and repeated magnitudes; each
        # epoch's blocks are defined from the path's _side masks, paste by paste
        rng = philox(seed)
        n = int(rng.integers(15, 25))
        source = random_topology(n, rng)
        target = random_model(n, rng)
        values = rng.uniform(-1.0, 1.0, size=n * (n - 1) // 2)
        values[rng.random(values.size) < 0.1] = 0.0
        repeated = rng.random(values.size) < 0.2
        values[repeated] = rng.choice([0.5, -0.5, 0.25], size=int(repeated.sum()))
        alpha = CorrelationVector(source.leaves, values)
        trace = interpolate(source, target, alpha)
        assert trace.moves
        indexed = enumerate(trace.moves)
        for _, epoch in itertools.groupby(indexed, key=lambda item: item[1].epoch):
            epoch = list(epoch)
            before = trace.topologies[epoch[0][0]]
            ra, rb = block_root(before, epoch[0][1].block), block_root(before, epoch[0][1].anchor)
            nodes = reference_path(before, ra, rb)
            assert len(epoch) == len(nodes) - 3
            toward = [_side(before, a, b) for a, b in zip(nodes, nodes[1:])]
            labels = np.array(before.leaves)
            for k, (_, move) in enumerate(epoch, start=1):
                masks = (~toward[0], toward[0] & ~toward[k],
                         toward[k] & ~toward[k + 1], toward[k + 1])
                assert move.blocks == tuple(tuple(sorted(labels[m].tolist())) for m in masks)
                assert move.max_gap == max(quartet_gap(alpha, q) for q in move.changed_quartets)

    def test_carried_roots_match_the_split_table(self, monkeypatch):
        # interpolate carries each block's root through every renumbering; at
        # each epoch both must be the node that the split table says roots it
        module = importlib.import_module("latent_ising.interpolate")
        calls = []
        real = module._epoch_moves
        monkeypatch.setattr(
            module, "_epoch_moves", lambda *args: calls.append(args[:3]) or real(*args)
        )
        cases = []
        rng = philox(53)
        for n in range(4, 33):
            source = random_topology(n, rng)
            target = random_model(n, rng, magnitude=(0.25, 0.85))
            cases.append((source, target, correlations(random_model(n, rng))))
        for n, seed in itertools.product((6, 11, 17), range(3)):  # the signed, noisy corpus
            rng = philox(500 + 10 * n + seed)
            source = random_model(n, rng, magnitude=(0.1, 0.9), signed=True)
            target = random_model(n, rng, magnitude=(0.1, 0.9), signed=True)
            alpha = correlations(source)
            noisy = np.clip(alpha.values + rng.normal(0.0, 0.05, alpha.values.size), -1.0, 1.0)
            cases.append((source.topology, target, CorrelationVector(alpha.labels, noisy)))
        merged = set()
        for source, target, alpha in cases:
            calls.clear()
            trace = interpolate(source, target, alpha)
            firsts = [next(ms) for _, ms in itertools.groupby(trace.moves, lambda m: m.epoch)]
            assert len(calls) == len(firsts) == trace.epochs
            for (current, ra, rb), move in zip(calls, firsts):
                assert ra == block_root(current, move.block)
                assert rb == block_root(current, move.anchor)
                merged.update((len(move.block) > 1, len(move.anchor) > 1))
        assert merged == {False, True}

    @pytest.mark.parametrize(
        "n, seed, digest",
        [
            (32, 1, "d59df0fcc6e51ade63e02552fc18d34f9500feeaaa539f5cea6207957b8dc6bb"),
            (32, 2, "1cb0a56f2c6736effde70edee115522fcaf3eb900d3c44b3b7933c3282410d05"),
            (64, 1, "e925e95269978058be5ddf5010ef777cf062a6e1fafc4f9bf86f8179bcaf061e"),
            (64, 2, "80b5d3cd02fa55821afb444bff5fcf347b467ece6c86bfb832d740008860c973"),
        ],
    )
    def test_large_trace_and_topologies_are_pinned(self, n, seed, digest):
        # the summary and every materialized tree, beyond the n = 20 pins
        rng = philox(seed)
        source = random_weighted_tree(n, rng, 0.25, 0.85)
        target = random_weighted_tree(n, rng, 0.25, 0.85)
        trace = interpolate(source.topology, target, correlations(source))
        text = json.dumps(trace_to_json(trace), sort_keys=True)
        sha = hashlib.sha256(text.encode())
        for topology in trace.topologies:
            sha.update(repr(topology.edges).encode())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "3ab087b1bda608d6693a4cd89a9f48d863a51bbf1c6b66cbacf4cffc3052f676"),
            (2, "d5b80c2bb4120100e0553927ac0547cbb4fe6fcf7ba1d6055a49d659000e61a2"),
            (3, "57f298ec49efacd64bc72a2162d90fd96d0acc9f4fd4978115fd67911e871c8d"),
        ],
    )
    def test_trace_json_is_pinned(self, seed, digest):
        rng = philox(seed)
        source = random_weighted_tree(20, rng, 0.25, 0.85)
        target = random_weighted_tree(20, rng, 0.25, 0.85)
        trace = interpolate(source.topology, target, correlations(source))
        text = json.dumps(trace_to_json(trace), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_trace_json_counts_each_move_once(self, monkeypatch):
        rng = philox(1)
        source = random_weighted_tree(20, rng, 0.25, 0.85)
        target = random_weighted_tree(20, rng, 0.25, 0.85)
        trace = interpolate(source.topology, target, correlations(source))
        counted = []
        count = Move.quartet_count.fget
        monkeypatch.setattr(Move, "quartet_count", property(lambda m: counted.append(m) or count(m)))
        payload = trace_to_json(trace)
        assert counted == list(trace.moves)
        assert payload["total_changed_quartets"] == sum(map(count, trace.moves))

    def test_trace_json_with_singleton_and_merged_moves_is_pinned(self):
        # signed weights and noisy correlations, so epochs move both single
        # leaves and merged blocks
        digest = hashlib.sha256()
        moved = set()
        for n, seed in itertools.product((6, 11, 17), range(3)):
            rng = philox(500 + 10 * n + seed)
            source = random_model(n, rng, magnitude=(0.1, 0.9), signed=True)
            target = random_model(n, rng, magnitude=(0.1, 0.9), signed=True)
            alpha = correlations(source)
            noisy = np.clip(alpha.values + rng.normal(0.0, 0.05, alpha.values.size), -1.0, 1.0)
            trace = interpolate(source.topology, target, CorrelationVector(alpha.labels, noisy))
            moved.update(len(m.block) > 1 for m in trace.moves)
            digest.update(json.dumps(trace_to_json(trace)).encode())
        assert moved == {False, True}
        assert digest.hexdigest() == (
            "f10615576248f54b84ac6e96b5896bd80f07d65e87e560a0a4f09a73378ea868"
        )
