"""Extended-Newick round trips."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_ising import (
    MalformedTree,
    TreeTopology,
    WeightedTree,
    WeightedForest,
    contract_edge,
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

from latent_ising.cli import main

from conftest import caterpillar, philox


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
    with pytest.raises(MalformedTree, match="whitespace inside a label or weight"):
        parse_tree("((1 2:0.5,3:0.5):0.8,(4:0.5,5:0.5):1.0);")
    with pytest.raises(MalformedTree, match="whitespace inside a label or weight"):
        parse_tree("((1:0. 5,2:0.5):0.8,(3:0.5,4:0.5):1.0);")


@pytest.mark.parametrize(
    "text, message",
    [
        ("((1:0.5,2:0.5);", "expected ')' at position 14"),
        ("(1,2)x;", "trailing characters near position 5"),
        ("(1:zz,2:0.5);", "bad weight at position 3"),
        ("();", "expected a leaf label at position 1"),
        (";", "expected a leaf label at position 0"),
        ("(1,2,);", "expected a leaf label at position 5"),
        ("(1,(2,3)4);", "expected ')' at position 8"),
        ("((1,2));", "internal node 4 dangles with degree 1"),
        ("(7);", "one-leaf tree must have no edges"),
        ("((7));", "one-leaf tree must have no edges"),
        ("(7:0.5);", "one-leaf tree must have no edges"),
        ("(1 2,3);", "whitespace inside a label or weight at position 2"),
        ("(1,2)", "Newick string must end with ';'"),
        ("(1:0.5,1:0.5);", "duplicate leaf label"),
        ("(1\u00b2,2);", "expected ')' at position 2"),  # a digit that is not decimal
    ],
)
def test_malformed_input_messages(text, message):
    with pytest.raises(MalformedTree) as exc:
        parse_tree(text)
    assert str(exc.value) == message
    assert type(exc.value) is MalformedTree


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


def _recursive_serialize(tree):
    """The top-down recursive rendering: the reference for the bottom-up one."""
    topology = tree.topology
    leaves = topology.leaves
    if len(leaves) == 1:
        return f"{leaves[0]};"
    root = topology.neighbors(leaves[0])[0]
    if topology.is_leaf(root):
        return f"({leaves[0]}:{tree.weight(leaves[0], root)!r},{root}:1.0);"

    def min_leaf(v, parent):
        if topology.is_leaf(v):
            return v
        return min(min_leaf(w, v) for w in topology.neighbors(v) if w != parent)

    def render(v, parent):
        theta = tree.weight(parent, v)
        if topology.is_leaf(v):
            return f"{v}:{theta!r}"
        kids = sorted(
            (w for w in topology.neighbors(v) if w != parent), key=lambda w: min_leaf(w, v)
        )
        return "(" + ",".join(render(w, v) for w in kids) + f"):{theta!r}"

    kids = sorted(topology.neighbors(root), key=lambda w: min_leaf(w, root))
    return "(" + ",".join(render(w, root) for w in kids) + ");"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_serializer_matches_recursive_reference(seed):
    rng = philox(seed)
    wt = random_weighted_tree(int(rng.integers(1, 20)), rng, -0.95, 0.95)
    trees = [wt]
    internal = [e for e in wt.topology.edges if not any(map(wt.topology.is_leaf, e))]
    if internal:
        contracted = wt
        for e in internal[: int(rng.integers(1, len(internal) + 1))]:
            if contracted.topology.has_edge(*e):  # an earlier contraction may merge it
                contracted = contract_edge(contracted, e)
        trees += [contracted, normalize(contracted)]
    for tree in trees:
        assert serialize_tree(tree) == _recursive_serialize(tree)


def test_deep_caterpillar_round_trips_and_samples(tmp_path, capsys):
    # nested deeper than the default recursion limit, in both directions
    topo = caterpillar(1500)
    rng = philox(12)
    wt = WeightedTree(topo, {e: float(rng.uniform(0.2, 0.9)) for e in topo.edges})
    text = serialize_tree(wt)
    assert text.count("(") > sys.getrecursionlimit()
    again = parse_tree(text)
    assert again.topology.edges == topo.edges
    assert again.theta == wt.theta
    assert serialize_tree(again) == text

    path = tmp_path / "deep.nwk"
    path.write_text(text + "\n")
    draws = tmp_path / "draws.txt"
    assert main(["sample", "--tree", str(path), "--m", "20", "--out", str(draws)]) == 0
    # exact TV refuses 1500 leaves with the JSON error, not a traceback
    assert main(["eval-tv", str(path), str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]
