"""Extended-Newick round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_ising import (
    MalformedTree,
    TreeTopology,
    WeightedTree,
    WeightedForest,
    correlations,
    normalize,
    parse_forest,
    parse_model,
    parse_tree,
    random_weighted_tree,
    serialize_forest,
    serialize_tree,
    topologies_equal,
)

from conftest import philox


def test_documented_example_parses_to_middle_edge_tree():
    wt = parse_tree("((1:0.5,2:0.5):0.8,(3:0.5,4:0.5):1.0);")
    alpha = correlations(wt)
    assert alpha.get(1, 2) == pytest.approx(0.25)
    assert alpha.get(1, 3) == pytest.approx(0.2)
    assert alpha.get(3, 4) == pytest.approx(0.25)


def test_negative_weights_round_trip():
    wt = parse_tree("((1:-0.5,2:0.5):-0.8,(3:0.5,4:0.5):1.0);")
    assert correlations(wt).get(1, 3) == pytest.approx(-0.5 * -0.8 * 1.0 * 0.5)
    again = parse_tree(serialize_tree(wt))
    np.testing.assert_allclose(correlations(again).values, correlations(wt).values)


def test_rooted_anchor_weight_ignored():
    a = parse_tree("((1:0.5,2:0.5):0.8,3:1.0);")
    b = parse_tree("((1:0.5,2:0.5):0.8,3:1.0):0.3;")
    np.testing.assert_allclose(correlations(a).values, correlations(b).values)


def test_whitespace_tolerated():
    wt = parse_tree("( (1:0.5, 2:0.5) :0.8,\n (3:0.5, 4:0.5):1.0 );")
    assert correlations(wt).get(1, 2) == pytest.approx(0.25)


def test_two_leaf_and_singleton():
    wt = parse_tree("(1:0.25,2:1.0);")
    assert correlations(wt).get(1, 2) == pytest.approx(0.25)
    single = parse_tree("7;")
    assert single.topology.leaves == (7,)
    assert serialize_tree(single) == "7;"


def test_two_leaf_chain_round_trips():
    # the leaves meet through degree-2 nodes, not through one edge
    for edges in ([(1, 3), (2, 3)], [(1, 3), (3, 4), (4, 5), (2, 5)]):
        weights = dict(zip(edges, [0.5, -0.5, 0.25, 0.5]))
        chain = WeightedTree(TreeTopology([1, 2], edges), weights)
        again = parse_tree(serialize_tree(chain))
        assert again.topology.edges == ((1, 2),)
        assert again.theta[(1, 2)] == correlations(chain).get(1, 2)


def test_malformed_inputs():
    with pytest.raises(MalformedTree):
        parse_tree("((1:0.5,2:0.5)")
    with pytest.raises(MalformedTree):
        parse_tree("(1:0.5,1:0.5);")
    with pytest.raises(MalformedTree):
        parse_tree("(1:zz,2:0.5);")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_random_round_trip(seed):
    rng = philox(seed)
    n = int(rng.integers(2, 10))
    wt = normalize(random_weighted_tree(n, rng, -0.95, 0.95))
    again = parse_tree(serialize_tree(wt))
    assert topologies_equal(again.topology, wt.topology)
    np.testing.assert_allclose(
        correlations(again).values, correlations(wt).values, atol=1e-12
    )


def test_non_binary_tree_survives_round_trip():
    # contracted junctions (degree 4 and up) must not be re-split by parsing
    text = "(1:0.5,2:0.25,3:0.5,4:-0.5);"
    wt = parse_tree(text)
    hub = next(v for v in wt.topology.nodes if not wt.topology.is_leaf(v))
    assert wt.topology.degree(hub) == 4
    again = parse_tree(serialize_tree(wt))
    assert topologies_equal(again.topology, wt.topology)
    np.testing.assert_allclose(correlations(again).values, correlations(wt).values)


def test_forest_round_trip():
    rng = philox(4)
    a = random_weighted_tree(4, rng, 0.2, 0.8)
    two = parse_tree("(5:0.5,6:1.0);")
    single = parse_tree("7;")
    forest = WeightedForest([a, two, single])
    text = serialize_forest(forest)
    again = parse_forest(text)
    assert len(again.components) == 3
    assert again.leaves == (1, 2, 3, 4, 5, 6, 7)
    assert isinstance(parse_model(text), WeightedForest)
    assert parse_model(serialize_tree(a)).topology.leaves == (1, 2, 3, 4)
