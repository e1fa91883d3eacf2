"""The public pipeline fails only through the package's own error classes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from latent_ising import (
    LatentIsingError,
    WeightedTree,
    exact_tv,
    interpolate,
    learn_from_samples_known,
    learn_unknown,
    random_topology,
    sample,
)
from latent_ising.estimation import empirical_correlations

from conftest import EDGE_WEIGHTS, philox


@st.composite
def _pipeline_inputs(draw):
    """A sampled tree at n <= 10, a second topology on its leaves, and a delta."""
    n = draw(st.integers(1, 10))
    rng = philox(draw(st.integers(0, 2 ** 32)))
    topology = random_topology(n, rng)
    weights = draw(st.lists(EDGE_WEIGHTS, min_size=len(topology.edges), max_size=len(topology.edges)))
    tree = WeightedTree(topology, dict(zip(topology.edges, weights)))
    samples = sample(tree, draw(st.integers(5, 3000)), draw(st.integers(0, 2 ** 32)))
    delta = draw(st.sampled_from([1e-4, 0.01, 0.1, 0.5]))
    return tree, random_topology(n, rng), samples, delta


@settings(max_examples=200, deadline=None)
@given(_pipeline_inputs())
def test_only_package_errors_escape(inputs):
    tree, source, samples, delta = inputs
    calls = (
        lambda: learn_unknown(samples, delta),
        lambda: learn_from_samples_known(tree.topology, samples, delta),
        lambda: exact_tv(tree, learn_unknown(samples, delta)),
        lambda: interpolate(source, tree, empirical_correlations(samples, delta).alpha_hat),
    )
    for call in calls:
        try:
            call()
        except LatentIsingError:
            pass
