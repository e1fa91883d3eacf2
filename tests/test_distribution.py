"""Closed form vs marginalization, sampling, exact TV, path removal."""

import copy
import errno
import hashlib
import itertools
import os
import pickle
import re
import signal
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latent_ising import (
    BadParameter,
    CorrelationVector,
    DimensionMismatch,
    EmptySample,
    LatentIsingError,
    BadSpinValue,
    MalformedTree,
    TooLarge,
    TreeTopology,
    UnknownLeaf,
    UnknownPair,
    WeightedForest,
    WeightedTree,
    as_forest,
    binary,
    closed_form_distribution,
    closed_form_prob,
    closest_relative_matching,
    contract_edge,
    correlations,
    exact_tv,
    marginal_distribution,
    marginalize_prob,
    normalize,
    path_removed,
    random_topology,
    random_weighted_tree,
    read_samples,
    sample,
    write_samples,
)
import latent_ising.distribution as distribution_module
from latent_ising.distribution import (
    _BLOCK_ROWS,
    _fwht,
    _marginalize,
    _model_table,
    _overwrite,
    config_index,
    even_subset_coefficients,
)
from latent_ising.estimation import confidence_radius, empirical_correlations
from latent_ising.trees import _postorder

from conftest import (
    EDGE_WEIGHTS,
    caterpillar,
    four_leaf_example,
    pair_vector,
    peak_bytes,
    philox,
    random_model,
)


def brute_force_prob(tree: WeightedTree, x) -> float:
    """Enumerate internal spin assignments directly from the edge factors."""
    topo = tree.topology
    internals = sorted(v for v in topo.nodes if not topo.is_leaf(v))
    spins = dict(zip(topo.leaves, x))
    total = 0.0
    for assign in itertools.product((-1, 1), repeat=len(internals)):
        spins.update(zip(internals, assign))
        prob = 0.5
        for u, v in topo.edges:
            prob *= (1.0 + tree.weight(u, v) * spins[u] * spins[v]) / 2.0
        total += prob
    return total


def _pull_marginalize(tree: WeightedTree, spins):
    """Reference marginalization: each node but a leaf below the root pulls
    its children's messages through its neighbours but its parent, in
    ascending order."""
    topology = tree.topology
    leaf_pos = {leaf: k for k, leaf in enumerate(topology.leaves)}
    root = topology.leaves[0]
    order, parent = _postorder(topology._adjacency, root)
    below = {}
    for v in order:
        if topology.is_leaf(v) and v != root:
            up = spins[leaf_pos[v]]
            below[v] = (up.astype(float), (~up).astype(float))
            continue
        plus = minus = 1.0
        for c in topology.neighbors(v):
            if c == parent[v]:
                continue
            th = tree.weight(v, c)
            cp, cm = below.pop(c)
            plus = plus * (0.5 * ((1.0 + th) * cp + (1.0 - th) * cm))
            minus = minus * (0.5 * ((1.0 - th) * cp + (1.0 + th) * cm))
        below[v] = (plus, minus)
    root_plus, root_minus = below[root]
    return 0.5 * np.where(spins[0], root_plus, root_minus)


class TestClosedForm:
    def test_single_edge(self):
        topo = TreeTopology([1, 2], [(1, 2)])
        alpha = pair_vector([1, 2], {(1, 2): 0.5})
        assert closed_form_prob(topo, alpha, (1, 1)) == pytest.approx(0.375)

    def test_zero_vector_is_uniform(self):
        topo = caterpillar(5)
        alpha = CorrelationVector(range(1, 6), np.zeros(10))
        for x in ((1, 1, 1, 1, 1), (1, -1, 1, -1, 1)):
            assert closed_form_prob(topo, alpha, x) == pytest.approx(1 / 32)

    def test_four_leaf_value_against_spin_enumeration(self):
        wt = four_leaf_example()
        alpha = correlations(wt)
        got = closed_form_prob(wt.topology, alpha, (1, 1, 1, 1))
        assert got == pytest.approx(0.14765625)
        assert got == pytest.approx(brute_force_prob(wt, (1, 1, 1, 1)))
        assert _model_table(wt).sum() == pytest.approx(1.0)

    def test_degree_two_node_reads_as_its_contraction(self):
        topo = TreeTopology([1, 2, 3], [(1, 4), (4, 5), (2, 5), (3, 5)])
        tree = WeightedTree(topo, {(1, 4): 0.6, (4, 5): -0.7, (2, 5): 0.4, (3, 5): 0.9})
        alpha = correlations(tree)
        table = closed_form_distribution(topo, alpha)
        assert np.abs(table - closed_form_distribution(binary(topo), alpha)).max() == 0.0
        np.testing.assert_allclose(table, marginal_distribution(tree), atol=1e-12)

    def test_degree_four_node_rejected(self):
        topo = TreeTopology([1, 2, 3, 4], [(k, 5) for k in range(1, 5)])
        alpha = CorrelationVector(topo.leaves, np.full(6, 0.25))
        with pytest.raises(MalformedTree, match="^topology has internal degree above 3$"):
            closed_form_distribution(topo, alpha)

    def test_dimension_mismatch(self):
        wt = four_leaf_example()
        with pytest.raises(DimensionMismatch):
            closed_form_prob(wt.topology, correlations(wt), (1, 1, 1))

    def test_coefficients_need_the_topology_leaf_set(self):
        alpha = CorrelationVector(range(2, 7), np.zeros(10))
        with pytest.raises(
            DimensionMismatch, match="^correlation vector covers a different leaf set$"
        ):
            even_subset_coefficients(caterpillar(5), alpha)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_coefficients_are_products_along_the_matching(self, n):
        # an arbitrary vector, mostly not realizable on the tree
        rng = philox(n)
        topo = random_topology(n, rng)
        alpha = CorrelationVector(topo.leaves, rng.uniform(-1.0, 1.0, n * (n - 1) // 2))
        coef = even_subset_coefficients(topo, alpha)
        subsets = [[leaf for k, leaf in enumerate(topo.leaves) if mask >> k & 1]
                   for mask in range(2 ** n)]
        even = np.array([len(s) % 2 == 0 for s in subsets])
        expected = [
            np.prod([alpha.get(a, b) for a, b in closest_relative_matching(topo, s)])
            for s, is_even in zip(subsets, even) if is_even
        ]
        np.testing.assert_allclose(coef[even], expected, rtol=1e-12, atol=0)
        assert not coef[~even].any()

    @pytest.mark.parametrize(
        "n, digest",
        [
            (1, "4868bfd07b123872fea108decadf1443c17b9f2298c7a9a62e343402c54e1a0a"),
            (2, "4aadf785740935d1accb1fc8e3a7c284770ba6e0f79b93920b68a8580e6c60e6"),
            (5, "644f4a6e2d0dbb91624dd900d6334901c70de60ff9e0e2e7b5513e2759438ffd"),
            (12, "ccf6c77cc666ecfd39adda11a2ca0ed4820943feae0e76390046481fd0d1bbf4"),
            (14, "55a3ef182041393d16240fa6a04bc8bc3c748531e163fdcf36243ce93fb08c8c"),
            (16, "be2e42a050b64be256e5daed70623f0d9b4fd3d6a17473f0b2e3057ad1219219"),
            (20, "5d336e6cd411fbf9d3f3784749fa70e0d8dcc7a6d71ed1e44a68db1bd1d70228"),
        ],
    )
    def test_exact_tables_are_pinned(self, n, digest):
        # the other tests compare the two routes to 1e-12; this pins their bits
        rng = philox(n)
        tree = random_weighted_tree(n, rng)
        alpha = correlations(tree)
        arbitrary = CorrelationVector(alpha.labels, rng.uniform(-1.0, 1.0, alpha.values.shape))
        tables = hashlib.sha256()
        for vector in (alpha, arbitrary):
            tables.update(even_subset_coefficients(tree.topology, vector).tobytes())
            tables.update(closed_form_distribution(tree.topology, vector).tobytes())
        tables.update(marginal_distribution(tree).tobytes())
        assert tables.hexdigest() == digest

    @pytest.mark.parametrize("bits", range(15))
    def test_fwht_is_the_radix2_transform_bit_for_bit(self, bits):
        # signed zeros, subnormals and magnitudes 1e-150..1e150: every sum of
        # 2^14 of them stays finite, and a reordered summation shows in the bits
        rng = philox(900 + bits)
        size = 2**bits
        vec = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-150, 150, size)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e150, -1e-150]
        picks = rng.random(size) < 0.25
        vec[picks] = rng.choice(special, picks.sum())
        vec[rng.random(size) < 0.1] = 1.0  # exact cancellations
        want = vec.copy()
        h = 1
        while h < size:  # plain radix-2: spans ascending, (x + y, x - y)
            pairs = want.reshape(-1, 2, h)
            x, y = pairs[:, 0].copy(), pairs[:, 1].copy()
            pairs[:, 0], pairs[:, 1] = x + y, x - y
            h *= 2
        before = vec.tobytes()
        assert _fwht(vec).tobytes() == want.tobytes()
        assert vec.tobytes() == before


class TestMarginalization:
    def test_single_edge(self):
        wt = WeightedTree(TreeTopology([1, 2], [(1, 2)]), {(1, 2): 0.5})
        assert marginalize_prob(wt, (1, 1)) == pytest.approx(0.375)

    @pytest.mark.parametrize("n", [4, 70])
    def test_perfect_correlation(self, n):
        # n=70 is far beyond dense enumeration and the int64 mask width
        topo = caterpillar(n)
        wt = WeightedTree(topo, {e: 1.0 for e in topo.edges})
        x = [1] * n
        assert marginalize_prob(wt, x) == pytest.approx(0.5)
        x[2] = -1
        assert marginalize_prob(wt, x) == pytest.approx(0.0)

    def test_four_leaf_value(self):
        assert marginalize_prob(four_leaf_example(), (1, 1, 1, 1)) == pytest.approx(
            0.14765625
        )

    def test_zero_spin_rejected(self):
        with pytest.raises(DimensionMismatch, match="^spins must be -1 or \\+1$"):
            marginalize_prob(four_leaf_example(), (1, 0, 1, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_agrees_with_closed_form_and_enumeration(self, seed):
        rng = philox(seed)
        n = int(rng.integers(2, 7))
        wt = random_weighted_tree(n, rng, -1.0, 1.0)
        alpha = correlations(wt)
        table_closed = closed_form_distribution(wt.topology, alpha)
        table_marg = marginal_distribution(wt)
        np.testing.assert_allclose(table_closed, table_marg, atol=1e-12)
        x = tuple(int(s) for s in rng.choice((-1, 1), size=n))
        assert marginalize_prob(wt, x) == pytest.approx(
            brute_force_prob(wt, x), abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 10**6))
    def test_folded_walk_matches_pull_reference(self, n, seed):
        rng = philox(seed)
        topo = random_topology(n, rng)
        weights = np.where(
            rng.random(len(topo.edges)) < 0.2,
            rng.choice([0.0, 1.0, -1.0], len(topo.edges)),
            rng.uniform(-1.0, 1.0, len(topo.edges)),
        )
        wt = WeightedTree(topo, dict(zip(topo.edges, weights.tolist())))
        flat = list(rng.random(n) < 0.5)  # 0-d: one configuration
        shapes = [(), (5, 1), (1, 4), (5, 4)]  # broadcast: 20 configurations
        mixed = [rng.random(shapes[rng.integers(4)]) < 0.5 for _ in range(n)]
        for spins in (flat, mixed):
            got = _marginalize(wt, spins)
            want = _pull_marginalize(wt, spins)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["tree", "pair"])
    def test_model_table_reads_the_known_value(self, kind):
        wt = four_leaf_example()
        model = wt if kind == "tree" else (wt.topology, correlations(wt))
        table = _model_table(model)
        assert table[config_index(wt.leaves, (1, 1, 1, 1))] == pytest.approx(0.14765625)
        assert table.min() >= 0.0 and table.sum() == pytest.approx(1.0)


_SPINS = ["+1", "-1", "1", "+01"]
_TOKENS = _SPINS + ["2", "+300", "x", "#"]
_SEPARATORS = [" ", "\t", "\r\n", "\n"]
_HEADERS = st.builds("# n={} m={}".format, st.integers(0, 5), st.integers(0, 6))


def _fuzz_pieces():
    """Free text: tokens and headers, each followed by a separator."""
    piece = st.one_of(st.sampled_from(_SPINS), st.sampled_from(_TOKENS + _SEPARATORS), _HEADERS)
    return st.lists(st.tuples(piece, st.sampled_from(_SEPARATORS)), max_size=30).map(
        lambda pairs: "".join(a + b for a, b in pairs)
    )


@st.composite
def _fuzz_grid(draw):
    """Mostly well-formed rows, so the accepting path is reached often."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    token = st.one_of(st.sampled_from(_SPINS), st.sampled_from(_TOKENS))
    lines = [draw(_HEADERS)] if draw(st.booleans()) else []
    for _ in range(m):
        width = n if draw(st.integers(0, 9)) else draw(st.integers(1, 5))
        cells = [draw(token) for _ in range(width)]
        lines.append("".join(c + draw(st.sampled_from([" ", "\t", " \t"])) for c in cells))
        if not draw(st.integers(0, 4)):
            lines.append(draw(st.sampled_from(["", "# comment", "\t", draw(_HEADERS)])))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


_MUTATION_BYTES = b"+-1 \t\r\n#0x"
_MUTATIONS = ["replace", "delete", "insert", "n-1", "n+1", "m-1", "m+1", "blank", "crlf"]


@st.composite
def _mutation_cases(draw):
    """A +-1 matrix and one mutation of the file ``write_samples`` makes of it."""
    draws = draw(arrays(np.int8, st.tuples(st.integers(1, 60), st.integers(1, 20)),
                        elements=st.sampled_from([-1, 1])))
    m, n = draws.shape
    size = len(f"# n={n} m={m}\n") + 3 * n * m
    kind = draw(st.sampled_from(_MUTATIONS))
    return draws, kind, draw(st.integers(0, size - 1)), draw(st.sampled_from(_MUTATION_BYTES))


def _mutate(raw: bytes, shape, kind: str, at: int, byte: int) -> bytes:
    """``raw`` with one byte replaced, deleted or inserted at ``at``, the
    header's n or m moved by one, a blank line appended, or CRLF line ends."""
    if kind == "replace":
        return raw[:at] + bytes([byte]) + raw[at + 1:]
    if kind == "delete":
        return raw[:at] + raw[at + 1:]
    if kind == "insert":
        return raw[:at] + bytes([byte]) + raw[at:]
    if kind == "blank":
        return raw + b"\n"
    if kind == "crlf":
        return raw.replace(b"\n", b"\r\n")
    m, n = shape
    step = int(kind[1:])
    n, m = (n + step, m) if kind[0] == "n" else (n, m + step)
    return f"# n={n} m={m}\n".encode() + raw.split(b"\n", 1)[1]


def _reference_read(path):
    """The per-token int() parse; None where the file must be rejected."""
    rows, header = [], None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                header = header or re.fullmatch(r"#\s*n=(\d+)\s+m=(\d+)", line)
                continue
            try:
                rows.append([int(tok) for tok in line.split()])
            except ValueError:
                return None
    if not rows or len({len(row) for row in rows}) > 1:
        return None
    samples = np.array(rows)
    if not np.all(np.isin(samples, (-1, 1))):
        return None
    if header and (int(header[1]), int(header[2])) != samples.shape[::-1]:
        return None
    return samples.astype(np.int8)


def _reference_sample(model, m: int, seed: int) -> np.ndarray:
    """The whole-matrix sampler: one (m, nodes) uniform draw and a per-node pass."""
    components = model.components if isinstance(model, WeightedForest) else (model,)
    rng = np.random.Generator(np.random.Philox(key=seed))
    columns = {}
    for tree in components:
        topology = tree.topology
        root = topology.leaves[0]
        order, parent = _postorder(topology._adjacency, root)
        order = order[::-1]  # root first
        uniform = rng.random((m, len(order)))
        spins = {root: np.where(uniform[:, 0] < 0.5, 1, -1).astype(np.int8)}
        for k, v in enumerate(order[1:], start=1):
            th = tree.weight(parent[v], v)
            agree = uniform[:, k] < (1.0 + th) / 2.0
            spins[v] = np.where(agree, spins[parent[v]], -spins[parent[v]]).astype(np.int8)
        for leaf in topology.leaves:
            columns[leaf] = spins[leaf]
    return np.column_stack([columns[leaf] for leaf in sorted(columns)])


@st.composite
def _sampler_models(draw, max_n: int = 12, max_parts: int = 3):
    """A tree, or a forest of up to ``max_parts`` trees with interleaved leaf labels."""
    n = draw(st.integers(1, max_n))
    parts = draw(st.integers(1, min(max_parts, n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=parts - 1,
                                max_size=parts - 1, unique=True))) if parts > 1 else []
    labels = draw(st.permutations(range(1, n + 1)))
    trees = []
    for c, (lo, hi) in enumerate(zip([0] + cuts, cuts + [n])):
        topo = random_topology(hi - lo, philox(draw(st.integers(0, 2 ** 32))))
        leaves = sorted(labels[lo:hi])
        rename = dict(zip(topo.leaves, leaves))
        node = lambda v: rename.get(v, 100 * (c + 1) + v)  # internal ids never meet labels
        edges = [(node(u), node(v)) for u, v in topo.edges]
        weights = draw(st.lists(EDGE_WEIGHTS, min_size=len(edges), max_size=len(edges)))
        trees.append(WeightedTree(TreeTopology(leaves, edges), dict(zip(edges, weights))))
    return trees[0] if parts == 1 else WeightedForest(trees)


class TestSampling:
    def test_unit_weights_freeze_rows(self):
        topo = caterpillar(5)
        wt = WeightedTree(topo, {e: 1.0 for e in topo.edges})
        draws = sample(wt, 64, 3)
        assert np.all(draws.min(axis=1) == draws.max(axis=1))

    def test_zero_weights_match_hoeffding_band(self):
        topo = caterpillar(6)
        wt = WeightedTree(topo, {e: 0.0 for e in topo.edges})
        m = 20000
        draws = sample(wt, m, 5)
        report = empirical_correlations(draws, 0.01)
        band = confidence_radius(6, 0.01, m)
        assert float(np.max(np.abs(report.alpha_hat.values))) <= band

    def test_same_seed_same_matrix(self):
        wt = random_model(6, philox(8))
        a = sample(wt, 100, 42)
        b = sample(wt, 100, 42)
        assert np.array_equal(a, b)
        c = sample(wt, 100, 43)
        assert not np.array_equal(a, c)

    def test_forest_sampling_is_independent_across_components(self):
        left = WeightedTree(TreeTopology([1, 2], [(1, 2)]), {(1, 2): 1.0})
        right = WeightedTree(TreeTopology([3, 4], [(3, 4)]), {(3, 4): 1.0})
        draws = sample(WeightedForest([left, right]), 4000, 9)
        assert np.all(draws[:, 0] == draws[:, 1])
        assert np.all(draws[:, 2] == draws[:, 3])
        cross = float(np.mean(draws[:, 0] * draws[:, 2]))
        assert abs(cross) < 0.1

    def test_empirical_frequencies_match_exact_distribution(self):
        wt = random_model(4, philox(14), magnitude=(0.2, 0.9), signed=True)
        m = 200_000
        draws = sample(wt, m, 6)
        indices = np.zeros(m, dtype=np.int64)
        for k in range(4):
            indices |= ((draws[:, k] > 0).astype(np.int64)) << k
        empirical = np.bincount(indices, minlength=16) / m
        exact = marginal_distribution(wt)
        # four-sigma band per cell at this sample size
        band = 4.0 * np.sqrt(np.clip(exact * (1 - exact), 1e-12, None) / m)
        assert np.all(np.abs(empirical - exact) <= band + 1e-3)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            sample(four_leaf_example(), 0, 1)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be non-negative"), (2**128, r"seed must be below 2\*\*128")],
        ids=["negative", "too-large"],
    )
    def test_seed_outside_the_key_range_rejected(self, seed, message):
        with pytest.raises(BadParameter, match=message):
            sample(four_leaf_example(), 10, seed)
        assert sample(four_leaf_example(), 10, 2**128 - 1).shape == (10, 4)

    @settings(max_examples=80, deadline=None)
    @given(
        _sampler_models(),
        st.one_of(
            st.sampled_from([1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7]),
            st.integers(1, 3 * _BLOCK_ROWS),
        ),
        st.integers(0, 2 ** 32),
    )
    def test_blocked_stream_matches_whole_matrix_sampler(self, model, m, seed):
        got = sample(model, m, seed)
        expected = _reference_sample(model, m, seed)
        assert got.dtype == expected.dtype == np.int8
        assert got.shape == expected.shape
        assert got.flags.c_contiguous
        assert np.array_equal(got, expected)

    def test_stream_is_pinned(self):
        draws = sample(four_leaf_example(), 10_000, 12345)
        assert draws.dtype == np.int8 and draws.flags.c_contiguous
        assert hashlib.sha256(draws.tobytes()).hexdigest() == (
            "c95653699a7242dc5401aff8b88f6ac9b938e2dfe33ab97aada9ea1ed07f9438"
        )

    @pytest.mark.parametrize(
        "offset", [-(2.0 ** -54), 0.0, 2.0 ** -54], ids=["below", "tie", "above"]
    )
    def test_threshold_ties_match_float_compare(self, offset):
        # seed 2's second stream value is leaf 2's uniform in row 0; in [0.25, 0.5)
        # the grid step is 2**-54 and (1 + theta)/2 == t holds exactly
        u = philox(2).random(2)[1]
        assert 0.25 <= u < 0.5
        t = u + offset
        tree = WeightedTree(TreeTopology([1, 2], [(1, 2)]), {(1, 2): 2.0 * t - 1.0})
        assert (1.0 + tree.weight(1, 2)) / 2.0 == t
        assert np.array_equal(sample(tree, 1, 2), _reference_sample(tree, 1, 2))

    def test_file_round_trip(self, tmp_path):
        wt = random_model(5, philox(10))
        draws = sample(wt, 37, 2)
        path = tmp_path / "draws.dat"
        write_samples(path, draws)
        text = path.read_text()
        assert text.splitlines()[0] == "# n=5 m=37"
        assert np.array_equal(read_samples(path), draws)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("+1 -1\n+1\n", DimensionMismatch),  # ragged rows
            ("+1 -1\n+1 x\n", BadSpinValue),  # non-integer token
            ("+1 -1\n+1 +300\n", BadSpinValue),  # outside int8
            ("+1 -1\n+1 257\n", BadSpinValue),  # outside int8, 1 modulo 256
            ("+1 -1\n+1 1.5\n", BadSpinValue),  # a float is not an integer token
            ("+1 -1\n+1 1.0\n", BadSpinValue),  # nor is an integral float
            ("# n=3 m=2\n+1 -1\n-1 +1\n", DimensionMismatch),  # header disagrees
            ("+1 -1 # note\n-1 +1\n", BadSpinValue),  # '#' only starts a comment line
            (b"+1 -1\n\xff\xfe\n", BadSpinValue),  # not UTF-8
        ],
        ids=[
            "ragged", "token", "overflow", "wraps-to-one", "float", "integral-float",
            "header", "inline-comment", "undecodable",
        ],
    )
    def test_malformed_file_rejected(self, tmp_path, text, error):
        path = tmp_path / "draws.dat"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(error):
            read_samples(path)

    def test_loose_layout_accepted(self, tmp_path):
        path = tmp_path / "draws.dat"
        path.write_bytes(b"# n=3 m=2\r\n+1\t-1 +1\r\n\r\n  # between rows\r\n\t-1 -1\t+01 \r\n\n")
        assert np.array_equal(read_samples(path), [[1, -1, 1], [-1, -1, 1]])

    @pytest.mark.parametrize("text", ["", "# n=3 m=0\n"], ids=["empty", "header-only"])
    def test_empty_file_is_quiet(self, tmp_path, text):
        path = tmp_path / "draws.dat"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptySample):
                read_samples(path)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.int8, st.tuples(st.integers(1, 60), st.integers(1, 20)),
                  elements=st.sampled_from([-1, 1])))
    @example(np.ones((1, 1), dtype=np.int8))
    @example(-np.ones((60, 1), dtype=np.int8))
    @example(np.ones((1, 20), dtype=np.int8))
    def test_codec_round_trip(self, tmp_path_factory, draws):
        path = tmp_path_factory.mktemp("codec") / "draws.dat"
        write_samples(path, draws)
        m, n = draws.shape
        rows = (" ".join("+1" if s > 0 else "-1" for s in row) + "\n" for row in draws)
        assert path.read_text() == f"# n={n} m={m}\n" + "".join(rows)
        back = read_samples(path)
        assert back.dtype == np.int8 and back.shape == (m, n)
        assert np.array_equal(back, draws)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_fuzz_pieces(), _fuzz_grid()))
    def test_codec_matches_token_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("codec") / "draws.dat"
        path.write_bytes(text.encode())
        expected = _reference_read(path)
        if expected is None:
            with pytest.raises(LatentIsingError):
                read_samples(path)
        else:
            got = read_samples(path)
            assert got.dtype == np.int8 and np.array_equal(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(_mutation_cases())
    @example((np.array([[1, -1]], np.int8), "replace", 9, ord(" ")))  # header's newline
    @example((np.array([[1, -1]] * 2, np.int8), "replace", 15, ord(" ")))  # a row's newline
    @example((np.array([[1, -1]], np.int8), "replace", 9, ord("\r")))  # bare CR ends the header
    @example((np.array([[1, -1]], np.int8), "replace", 10, ord("x")))  # a sign byte
    def test_mutated_written_file_matches_token_parser(self, tmp_path_factory, case):
        draws, kind, at, byte = case
        path = tmp_path_factory.mktemp("codec") / "draws.dat"
        write_samples(path, draws)
        path.write_bytes(_mutate(path.read_bytes(), draws.shape, kind, at, byte))
        expected = _reference_read(path)
        if expected is None:
            with pytest.raises(LatentIsingError):
                read_samples(path)
        else:
            got = read_samples(path)
            assert got.dtype == np.int8 and got.flags.c_contiguous
            assert np.array_equal(got, expected)

    def test_written_file_decoded_without_token_parser(self, tmp_path, monkeypatch):
        draws = sample(random_model(7, philox(4)), 300, 5)
        path = tmp_path / "draws.dat"
        write_samples(path, draws)

        def no_loadtxt(*args, **kwargs):
            raise AssertionError("np.loadtxt called on a written file")

        monkeypatch.setattr(np, "loadtxt", no_loadtxt)
        got = read_samples(path)
        assert got.dtype == np.int8 and got.flags.c_contiguous
        assert np.array_equal(got, draws)

    _SIGNS = np.where(philox(9).random((_BLOCK_ROWS + 5, 6)) < 0.5, -1, 1).astype(np.int8)
    _SIGNS_SHA = "a54e416722d23ab8291bc67e60565ec3957c861e2919f0a39c91ad38196d0b8f"
    _ONES_SHA = "a328fbf77fc713e7e5cc84ce8aacdee24cd90f4b8c2b3120288a728d9196a7a1"

    @pytest.mark.parametrize(
        "samples, digest",
        [
            (_SIGNS, _SIGNS_SHA),
            (_SIGNS.astype(np.int64), _SIGNS_SHA),
            (_SIGNS.astype(np.float16), _SIGNS_SHA),
            (_SIGNS.astype(np.float64), _SIGNS_SHA),
            (_SIGNS.astype(complex), _SIGNS_SHA),
            (_SIGNS.astype(object), _SIGNS_SHA),
            (np.asfortranarray(_SIGNS), _SIGNS_SHA),
            (np.repeat(_SIGNS, 3, axis=1)[:, ::3], _SIGNS_SHA),  # a strided view
            (np.ones(_SIGNS.shape, dtype=bool), _ONES_SHA),
            (np.ones(_SIGNS.shape, dtype=np.uint8), _ONES_SHA),
        ],
        ids=["int8", "int64", "float16", "float64", "complex", "object", "fortran",
             "strided", "bool", "uint8"],
    )
    def test_written_bytes_pinned(self, tmp_path, samples, digest):
        path = tmp_path / "draws.dat"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_samples(path, samples)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "samples, error",
        [
            (np.array([[0, 2, -5]]), BadSpinValue),
            (np.array([[1.0, np.nan, -1.0]]), BadSpinValue),
            (np.array([1, -1, 1]), EmptySample),  # 1-D
            (np.ones((0, 3)), EmptySample),  # no rows
            (np.ones((3, 0)), EmptySample),  # no columns
            (np.vstack([np.ones((_BLOCK_ROWS, 3)), [[1, 0, 1]]]), BadSpinValue),  # row B only
        ],
        ids=["out-of-range", "nan", "one-dimensional", "no-rows", "no-columns", "last-block"],
    )
    def test_write_rejects_invalid_matrix(self, tmp_path, samples, error):
        path = tmp_path / "draws.dat"
        with pytest.raises(error):
            write_samples(path, samples)
        assert not path.exists()

    @staticmethod
    def _with_sign(path, draws, row: int, byte: bytes) -> None:
        """Write ``draws``, then replace the sign byte of ``row``'s first cell."""
        write_samples(path, draws)
        raw = path.read_bytes()
        m, n = draws.shape
        at = len(raw) - 3 * n * (m - row % m)
        path.write_bytes(raw[:at] + byte + raw[at + 1:])

    @pytest.mark.parametrize(
        "row", [0, _BLOCK_ROWS + 7, -1], ids=["first-block", "middle-block", "last-block"]
    )
    def test_bad_cell_in_grid_block_reaches_token_parser(self, tmp_path, row):
        draws = sample(random_model(5, philox(6)), 2 * _BLOCK_ROWS + 1, 2)
        path = tmp_path / "draws.dat"
        self._with_sign(path, draws, row, b"x")
        message = f"^sample file {re.escape(str(path))} has a non-integer entry$"
        with pytest.raises(BadSpinValue, match=message):
            read_samples(path)

    def test_loose_cell_in_last_grid_block_reaches_token_parser(self, tmp_path, monkeypatch):
        draws = sample(random_model(5, philox(6)), _BLOCK_ROWS + 1, 2)
        path = tmp_path / "draws.dat"
        self._with_sign(path, draws, -1, b" ")  # " 1" is a valid token for +1
        loadtxt, calls = np.loadtxt, []
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        expected = draws.copy()
        expected[-1, 0] = 1
        assert np.array_equal(read_samples(path), expected)
        assert calls

    @pytest.mark.parametrize("layout", ["written", "loose"])
    def test_read_from_pipe(self, tmp_path, layout):
        draws = sample(random_model(6, philox(5)), 2 * _BLOCK_ROWS + 3, 4)  # > a pipe's buffer
        path = tmp_path / "draws.dat"
        write_samples(path, draws)
        raw = path.read_bytes()
        if layout == "loose":  # no header, so the first line read is a row
            raw = raw.split(b"\n", 1)[1].replace(b" ", b"\t").replace(b"\n", b"\r\n")
        read_end, write_end = os.pipe()

        def feed():
            with open(write_end, "wb") as fh:
                fh.write(raw)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            got = read_samples(f"/dev/fd/{read_end}")
        finally:
            writer.join()
            os.close(read_end)
        assert got.dtype == np.int8 and np.array_equal(got, draws)

    def test_write_memory_stays_bounded(self, tmp_path):
        draws = sample(random_model(16, philox(8)), 200_000, 3)
        assert peak_bytes(lambda: write_samples(tmp_path / "draws.dat", draws)) < 2_000_000

    def test_read_memory_stays_bounded(self, tmp_path):
        draws = sample(random_model(16, philox(8)), 200_000, 3)
        path = tmp_path / "draws.dat"
        write_samples(path, draws)
        budget = draws.nbytes + 2_000_000  # the output and a few blocks, not the file
        assert peak_bytes(lambda: read_samples(path)) < budget

    def test_sample_memory_stays_bounded(self):
        n, m = 16, 10 * _BLOCK_ROWS
        model = random_model(n, philox(8))
        budget = m * n + 1.5 * _BLOCK_ROWS * (2 * n - 2) * 8  # the output and one block's words
        assert peak_bytes(lambda: sample(model, m, 3)) < budget


class TestOverwrite:
    def test_exception_leaves_the_written_prefix(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"x" * 10_000)
        with pytest.raises(RuntimeError, match="^stop$"):
            with _overwrite(path) as fh:
                fh.write(b"prefix")
                raise RuntimeError("stop")
        assert path.read_bytes() == b"prefix"

    def test_truncates_when_the_final_flush_fails(self, tmp_path):
        # a file size limit fails the flush past 4096 bytes; the stale tail
        # beyond what reached the file is cut all the same
        resource = pytest.importorskip("resource")
        if signal.getsignal(signal.SIGXFSZ) != signal.SIG_IGN:
            pytest.skip("SIGXFSZ would end the process instead of failing the write")
        path = tmp_path / "out"
        path.write_bytes(b"x" * 10_000)
        limits = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, limits[1]))
        try:
            with pytest.raises(OSError) as exc:
                with _overwrite(path) as fh:
                    fh.write(b"y" * 5000)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
        assert exc.value.errno == errno.EFBIG
        assert path.read_bytes() == b"y" * 4096

    def test_write_samples_over_a_longer_file(self, tmp_path):
        draws = sample(random_model(5, philox(3)), 40, 1)
        fresh, old = tmp_path / "fresh.dat", tmp_path / "old.dat"
        write_samples(fresh, draws)
        old.write_bytes(b"+1 " * 10_000)
        write_samples(old, draws)
        assert old.read_bytes() == fresh.read_bytes()
        assert np.array_equal(read_samples(old), draws)


class TestExactTv:
    def test_identical_models(self):
        wt = four_leaf_example()
        assert exact_tv(wt, wt) == pytest.approx(0.0)

    def test_two_leaf_difference(self):
        topo = TreeTopology([1, 2], [(1, 2)])
        a = pair_vector([1, 2], {(1, 2): 0.5})
        b = pair_vector([1, 2], {(1, 2): 0.6})
        assert exact_tv((topo, a), (topo, b)) == pytest.approx(0.05)

    def test_chain_vs_uniform_three_leaves(self):
        topo = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])
        chain = WeightedTree(topo, {e: 1.0 for e in topo.edges})
        uniform = WeightedTree(topo, {e: 0.0 for e in topo.edges})
        # enumeration: the chain puts 1/2 on each constant configuration
        table = marginal_distribution(chain)
        expected = 0.5 * np.abs(table - 1.0 / 8).sum()
        assert expected == pytest.approx(0.75)
        assert exact_tv(chain, uniform) == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda wt: exact_tv(wt, wt),
            lambda wt: closed_form_distribution(normalize(wt).topology, correlations(wt)),
            marginal_distribution,
        ],
        ids=["exact_tv", "closed_form_distribution", "marginal_distribution"],
    )
    def test_too_large_guard(self, evaluate):
        topo = TreeTopology(range(1, 22), [(k, 22) for k in range(1, 22)])
        wt = WeightedTree(topo, {e: 0.0 for e in topo.edges})
        with pytest.raises(TooLarge):
            evaluate(wt)

    def test_different_leaf_sets_rejected_before_the_size_cap(self):
        def star(leaves):
            edges = [(k, 100) for k in leaves]
            return WeightedTree(TreeTopology(leaves, edges), dict.fromkeys(edges, 0.5))

        # 21 leaves each, so a table would raise TooLarge: the label check runs first
        with pytest.raises(DimensionMismatch, match="leaf sets differ"):
            exact_tv(star(range(1, 22)), star(range(2, 23)))
        with pytest.raises(DimensionMismatch, match="leaf sets differ"):
            exact_tv(four_leaf_example(), WeightedForest([star([1, 2, 3])]))

    @settings(max_examples=40, deadline=None)
    @given(_sampler_models(max_n=10, max_parts=4))
    @example(WeightedForest([  # interleaved labels and a singleton
        WeightedTree(TreeTopology([1, 4, 6], [(1, 7), (4, 7), (6, 7)]),
                     {(1, 7): 0.9, (4, 7): -0.6, (6, 7): 0.3}),
        WeightedTree(TreeTopology([2], []), {}),
        WeightedTree(TreeTopology([3, 5], [(3, 5)]), {(3, 5): -0.8}),
    ]))
    def test_forest_table_is_the_product_of_component_marginals(self, model):
        forest = as_forest(model)
        labels = forest.leaves
        table = _model_table(forest)
        for mask in range(2 ** len(labels)):
            x = {leaf: 1 if mask >> k & 1 else -1 for k, leaf in enumerate(labels)}
            expected = 1.0
            for tree in forest.components:
                expected *= marginalize_prob(tree, [x[leaf] for leaf in tree.leaves])
            assert abs(table[mask] - expected) <= 1e-12

    def test_lone_leaf_shortcut_matches_the_closed_form(self):
        # the forest table writes [0.5, 0.5] for a lone leaf instead of running
        # the closed form; the closed form gives the same bytes
        rng = philox(77)
        labels = (1 + rng.permutation(9)).tolist()
        parts = [labels[:1], labels[1:5], labels[5:6], labels[6:]]
        forest = WeightedForest([
            _renamed(random_weighted_tree(len(p), rng), sorted(p), range(100 * k, 100 * k + 9))
            for k, p in enumerate(parts, start=1)
        ])
        want = np.ones([2] * 9)
        for tree in forest.components:
            shape = np.ones(9, dtype=int)
            shape[8 - np.searchsorted(forest.leaves, tree.leaves)] = 2
            want = want * closed_form_distribution(tree.topology, correlations(tree)).reshape(shape)
        got = _model_table(forest)
        assert sum(tree.topology.leaf_count == 1 for tree in forest.components) == 2
        assert got.tobytes() == want.reshape(-1).tobytes()

    def test_forest_table_marginalizes_componentwise(self):
        left = WeightedTree(TreeTopology([1, 3], [(1, 3)]), {(1, 3): 0.5})
        right = WeightedTree(TreeTopology([2, 4], [(2, 4)]), {(2, 4): -0.25})
        forest = WeightedForest([left, right])
        # P(x1=x3=+1) * P(x2=x4=+1) with interleaved labels
        assert _model_table(forest)[0b1111] == pytest.approx(0.375 * (1 - 0.25) / 4)


def _renamed(tree: WeightedTree, leaves, internal) -> WeightedTree:
    """``tree`` with its sorted leaves named ``leaves`` and its internal nodes,
    in id order, named by the first ids of ``internal``."""
    topo = tree.topology
    name = dict(zip(topo.leaves, leaves))
    name.update(zip(sorted(topo.nodes - set(topo.leaves)), internal))
    return WeightedTree(
        TreeTopology(leaves, [(name[u], name[v]) for u, v in topo.edges]),
        {(name[u], name[v]): w for (u, v), w in tree.theta.items()},
    )


def _chained(tree: WeightedTree, rng) -> WeightedTree:
    """``tree`` with one to three edges subdivided by a degree-2 node each."""
    edges, theta = list(tree.topology.edges), dict(tree.theta)
    for node in range(max(tree.topology.nodes) + 1, max(tree.topology.nodes) + 4):
        u, v = edges.pop(int(rng.integers(len(edges))))
        edges += [(u, node), (v, node)]
        theta[(u, node)], theta[(v, node)] = theta.pop((u, v)), float(rng.uniform(-1.0, 1.0))
        if rng.random() < 0.5:
            break
    return WeightedTree(TreeTopology(tree.leaves, edges), theta)


def _contracted(tree: WeightedTree, rng) -> WeightedTree:
    """``tree`` with one internal edge contracted, leaving a degree-4 node;
    ``tree`` itself when it has no internal edge."""
    topo = tree.topology
    inner = [e for e in topo.edges if not (topo.is_leaf(e[0]) or topo.is_leaf(e[1]))]
    return contract_edge(tree, inner[int(rng.integers(len(inner)))]) if inner else tree


class TestOracleBitsThroughNormalize:
    """Binary trees reach the closed form without ``normalize``; every other
    tree goes through it.  These hashes, taken when every tree went through
    ``normalize``, pin the bits of both paths."""

    @pytest.mark.parametrize(
        "n, digest",
        [
            (2, "67786f0e190c474a792775bae7cb9bc51b888a15fce1d9e431e1a100f054bc55"),
            (3, "b4412a5331076e5c3b0a0afad179490c73417ec288636f2456686ff94757505d"),
            (4, "8812373e21f1403c4979fbfc68d3e13d1009bb83504b781a730819926bb6f596"),
            (5, "0a778b63405c47efce56cff9a813149ca15cf7bcf5b6291fca804738d0fbea2b"),
            (6, "de9a2902923ca6a36ca1d95f29ac2418524937855a03164050a1eda7df30cd72"),
            (7, "3d9239cca0d52859da6e5bae3bb7e67ca6ad640b046c17f546ad8b9b44d9db91"),
            (8, "29a56eb934b35043ca7c0f83c1be704257978c3c22c82883211b30ab9e2f35bd"),
            (9, "b70a0ace80064a26826ee24691fadc27ce2badff25b45811ad861dcbaede7dcf"),
            (10, "be490d5920868f02ecd44a50779f358897b5373b1917ae4f9d162dcb87019b32"),
            (11, "d4531d0985fd963e79baa6ee5af0f151bb9bd111268b9d525e536a4a050c7f88"),
            (12, "409b737b59b62362bc60fec02cae44b7d6a22dac1ae3e44e72285a4027acafc9"),
            (13, "04be80bb45743915e6e63fd843e3f8fd4aa0350454aa93f56fd83dbe31949d23"),
            (14, "4daf7e867dd9cac4ae774191fbb1c1d9d3aee93d712a687078cbd15bcf997588"),
        ],
    )
    def test_exact_tv_and_tables_are_pinned(self, n, digest):
        rng = philox(1000 + n)
        hashed = hashlib.sha256()
        for _ in range(3):
            a, b = random_weighted_tree(n, rng), random_weighted_tree(n, rng)
            spare = lambda: (n + 1 + rng.permutation(2 * n)).tolist()  # noqa: E731
            ra, rb = _renamed(a, a.leaves, spare()), _renamed(b, b.leaves, spare())
            ca, kb = _chained(a, rng), _contracted(b, rng)
            labels = (1 + rng.permutation(n)).tolist()
            cut = int(rng.integers(1, n))
            left = _renamed(random_weighted_tree(cut, rng), sorted(labels[:cut]), spare())
            right = _renamed(random_weighted_tree(n - cut, rng), sorted(labels[cut:]),
                             [v + 2 * n for v in spare()])
            binary_forest = WeightedForest([left, right])
            mixed_forest = WeightedForest([_chained(left, rng) if cut > 1 else left,
                                           _contracted(right, rng)])
            for model in (a, ra, ca, kb, binary_forest, mixed_forest):
                hashed.update(_model_table(model).tobytes())
            for x, y in ((a, b), (ra, rb), (ca, kb), (ra, ca), (binary_forest, mixed_forest),
                         (binary_forest, a)):
                hashed.update(exact_tv(x, y).hex().encode())
        assert hashed.hexdigest() == digest


def _rebuilt(model):
    """A tree or forest equal to ``model``, built afresh through its constructors."""
    if isinstance(model, WeightedForest):
        return WeightedForest([_rebuilt(tree) for tree in model.components])
    return WeightedTree(TreeTopology(model.leaves, model.topology.edges), dict(model.theta))


@st.composite
def _kept_value_models(draw):
    """A tree, a forest, or a tree with degree-2 and degree-4 nodes, at n <= 12."""
    model = draw(_sampler_models(max_n=12, max_parts=3))
    if isinstance(model, WeightedTree) and model.topology.edges and draw(st.booleans()):
        rng = philox(draw(st.integers(0, 2 ** 32)))
        model = _contracted(_chained(model, rng), rng)
    return model


class TestKeptValues:
    """A tree or forest keeps its correlations and its exact table once read."""

    def kept(self):
        tree = random_weighted_tree(7, philox(41), -0.9, 0.9)
        forest = WeightedForest([
            _renamed(random_weighted_tree(3, philox(42)), [1, 4, 6], [10, 11]),
            _renamed(random_weighted_tree(4, philox(43)), [2, 3, 5, 7], [20, 21, 22]),
        ])
        return {"tree": tree, "forest": forest}

    def test_one_truth_builds_its_table_once(self, monkeypatch):
        built = []
        real = distribution_module.even_subset_coefficients

        def counted(topology, alpha):
            built.append(alpha)
            return real(topology, alpha)

        monkeypatch.setattr(distribution_module, "even_subset_coefficients", counted)
        rng = philox(44)
        truth = random_weighted_tree(8, rng, -0.9, 0.9)
        fits = [random_weighted_tree(8, rng, -0.9, 0.9) for _ in range(2)]
        first = [exact_tv(truth, fit) for fit in fits]
        assert len(built) == 3  # the truth once, each fit once
        assert built[0] is correlations(truth)
        assert [exact_tv(truth, fit) for fit in fits] == first
        assert len(built) == 3

    @pytest.mark.parametrize("kind", ["tree", "forest"])
    def test_correlations_are_kept_on_the_model(self, kind):
        model = self.kept()[kind]
        assert model._alpha is None and model._table is None
        assert correlations(model) is correlations(model)
        assert model._alpha is correlations(model)

    @pytest.mark.parametrize("kind", ["tree", "forest"])
    def test_kept_arrays_and_slots_are_read_only(self, kind):
        model = self.kept()[kind]
        alpha = correlations(model)
        assert exact_tv(model, model) == 0.0
        table = model._table
        with pytest.raises(ValueError):
            alpha.values[0] = 0.5
        with pytest.raises(ValueError):
            table[0] = 0.5
        for name in ("_alpha", "_table"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(model, name, None)
        assert model._alpha is alpha and model._table is table

    @pytest.mark.parametrize("kind", ["tree", "forest"])
    def test_pickled_and_copied_models_drop_and_rebuild_the_kept_values(self, kind):
        model = self.kept()[kind]
        alpha = correlations(model).values.tobytes()
        table = _model_table(model).tobytes()
        uniform = WeightedForest([WeightedTree(TreeTopology([v], []), {}) for v in model.leaves])
        tv = exact_tv(model, uniform)
        for back in (pickle.loads(pickle.dumps(model)), copy.copy(model), copy.deepcopy(model)):
            assert back._alpha is None and back._table is None
            assert correlations(back).values.tobytes() == alpha
            assert _model_table(back).tobytes() == table
            assert exact_tv(back, uniform) == tv

    @settings(max_examples=40, deadline=None)
    @given(_kept_value_models())
    def test_filled_model_gives_what_a_fresh_one_gives(self, model):
        uniform = WeightedForest([WeightedTree(TreeTopology([v], []), {}) for v in model.leaves])
        correlations(model)
        _model_table(model)
        assert model._alpha is not None and model._table is not None
        assert correlations(model).values.tobytes() == correlations(_rebuilt(model)).values.tobytes()
        fresh = _model_table(_rebuilt(model))
        assert _model_table(model).tobytes() == fresh.tobytes()
        assert exact_tv(model, uniform) == exact_tv(_rebuilt(model), _rebuilt(uniform))
        assert exact_tv(uniform, model) == exact_tv(_rebuilt(uniform), _rebuilt(model))
        assert exact_tv(model, _rebuilt(model)) == 0.0


class TestPathRemoved:
    @pytest.mark.parametrize(
        "removal, labels, error",
        [
            ((1, 2, 3), range(1, 5), UnknownPair),
            ((1, 1), range(1, 5), UnknownPair),
            ((1, 5), range(1, 5), UnknownLeaf),
            ((1, 2), range(1, 6), DimensionMismatch),
        ],
        ids=["three-leaves", "repeated-leaf", "internal-node", "other-leaf-set"],
    )
    def test_bad_input_rejected(self, removal, labels, error):
        wt = four_leaf_example()
        alpha = CorrelationVector(labels, np.zeros(len(labels) * (len(labels) - 1) // 2))
        with pytest.raises(error):
            path_removed(alpha, wt.topology, removal)

    def test_cherry_pair_removal(self):
        wt = four_leaf_example()
        alpha = correlations(wt)
        gamma = path_removed(alpha, wt.topology, (1, 2))
        assert gamma.get(3, 4) == alpha.get(3, 4)
        for pair in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)):
            assert gamma.get(*pair) == 0.0

    def test_quartet_removal_keeps_outside_pairs(self):
        topo = caterpillar(6)
        wt = WeightedTree(topo, {e: 0.5 for e in topo.edges})
        alpha = correlations(wt)
        gamma = path_removed(alpha, topo, (1, 2, 3, 4))
        assert gamma.get(5, 6) == alpha.get(5, 6)
        assert gamma.get(1, 5) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_one_coordinate_difference_identity(self, seed):
        rng = philox(seed)
        n = int(rng.integers(3, 8))
        topo = random_model(n, rng).topology
        alpha = CorrelationVector(range(1, n + 1), rng.uniform(-1, 1, n * (n - 1) // 2))
        i, j = sorted(int(v) for v in rng.choice(range(1, n + 1), 2, replace=False))
        values = {(a, b): value for a, b, value in alpha.pairs()}
        values[i, j] = float(rng.uniform(-1, 1))
        beta = pair_vector(alpha.labels, values)
        gamma = path_removed(alpha, topo, (i, j))
        fa = closed_form_distribution(topo, alpha)
        fb = closed_form_distribution(topo, beta)
        fg = closed_form_distribution(topo, gamma)
        masks = np.arange(2 ** n)
        pos = {leaf: k for k, leaf in enumerate(topo.leaves)}
        pair_mask = (1 << pos[i]) | (1 << pos[j])
        chi = 1.0 - 2.0 * (np.bitwise_count(~masks & pair_mask) & 1)
        np.testing.assert_allclose(
            fa - fb, chi * (alpha.get(i, j) - beta.get(i, j)) * fg, atol=1e-12
        )


def test_config_index_orders_by_sorted_leaf():
    topo = TreeTopology([2, 5, 9], [(2, 10), (5, 10), (9, 10)])
    assert config_index(topo, (1, -1, 1)) == 0b101


@pytest.mark.parametrize(
    "call",
    [
        lambda wt: sample((wt.topology, correlations(wt)), 10, 1),
        lambda wt: exact_tv(wt, 3),
        lambda wt: _model_table(3),
        lambda wt: as_forest((wt.topology, correlations(wt))),
    ],
    ids=["sample", "exact_tv", "model_table", "as_forest"],
)
def test_unsupported_model_is_a_domain_error(call):
    with pytest.raises(BadParameter):
        call(four_leaf_example())
