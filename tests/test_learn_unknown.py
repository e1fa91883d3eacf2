"""Unknown-topology learning pipeline."""

import numpy as np
import pytest

from latent_ising import (
    BadParameter,
    EmptySample,
    WeightedTree,
    binary,
    choose_params,
    correlations,
    exact_tv,
    learn_unknown,
    learn_unknown_from_correlations,
    normalize,
    sample,
    topologies_equal,
)

from conftest import caterpillar, philox, random_model


class TestChooseParams:
    def test_reference_values(self):
        cfg = choose_params(1e-6, 10)
        assert cfg.xi == pytest.approx(1e-2 * 10 ** (-2 / 3))
        assert not cfg.clamped
        assert cfg.eta_prime == pytest.approx(4 * 10 * cfg.xi + 1e-6)

    def test_regime_violation_clamps_with_warning(self):
        cfg = choose_params(1.0, 8)
        assert cfg.clamped
        assert 0 < cfg.xi < 1
        assert cfg.eta == cfg.xi * 0.9

    def test_working_radius_never_exceeds_eta(self):
        rng = philox(40)
        for _ in range(200):
            eta = float(10 ** rng.uniform(-9, 0))
            n = int(rng.integers(2, 40))
            cfg = choose_params(eta, n)
            assert cfg.eta <= eta and cfg.eta < cfg.xi
            if not cfg.clamped:
                assert cfg.eta == pytest.approx(eta, rel=1e-15)

    def test_bad_eta(self):
        with pytest.raises(BadParameter):
            choose_params(0.0, 5)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_non_finite_eta_rejected(self, eta):
        with pytest.raises(BadParameter, match="eta must be finite and positive"):
            choose_params(eta, 5)


class TestLearnUnknown:
    def test_exact_correlations_recover_model(self):
        truth = random_model(6, philox(41), magnitude=(0.3, 0.7))
        forest = learn_unknown_from_correlations(correlations(truth), 1e-9)
        assert len(forest.components) == 1
        assert topologies_equal(
            normalize(forest.components[0]).topology, normalize(truth).topology
        )
        assert exact_tv(truth, forest) <= 1e-6

    def test_sampled_caterpillar(self):
        topo = caterpillar(6)
        rng = philox(42)
        truth = WeightedTree(topo, {e: float(rng.uniform(0.3, 0.7)) for e in topo.edges})
        draws = sample(truth, 200_000, 9)
        forest = learn_unknown(draws, 0.05)
        assert len(forest.components) == 1
        assert topologies_equal(normalize(forest.components[0]).topology, binary(topo))
        assert exact_tv(truth, forest) <= 0.15

    def test_near_independent_leaf_isolates(self):
        # leaf 6 hangs on a 1e-4 pendant: every path through it carries
        # correlation <= 1e-4, far below the estimation radius
        topo = caterpillar(6)
        rng = philox(43)
        theta = {e: float(rng.uniform(0.5, 0.8)) for e in topo.edges}
        theta[(6, 10)] = 1e-4
        truth = WeightedTree(topo, theta)
        draws = sample(truth, 250_000, 13)
        forest = learn_unknown(draws, 0.05)
        sizes = {frozenset(c.topology.leaves) for c in forest.components}
        assert frozenset({6}) in sizes
        assert frozenset({1, 2, 3, 4, 5}) in sizes
        # cutting the pendant moves every affected pair by <= 1e-4, so the
        # residual gap is the component fitting error
        assert exact_tv(truth, forest) <= 2 * 36 * 1e-4 + 0.05

    def test_empty_samples(self):
        with pytest.raises(EmptySample):
            learn_unknown(np.zeros((0, 4)), 0.05)

    def test_deterministic_pipeline(self):
        truth = random_model(6, philox(44), magnitude=(0.3, 0.7))
        draws = sample(truth, 50_000, 21)
        a = learn_unknown(draws, 0.05)
        b = learn_unknown(draws, 0.05)
        assert len(a.components) == len(b.components)
        for x, y in zip(a.components, b.components):
            assert topologies_equal(x.topology, y.topology)
            assert x.theta == y.theta

    def test_partition_property(self):
        truth = random_model(7, philox(45), magnitude=(0.1, 0.9), signed=True)
        draws = sample(truth, 5_000, 3)
        forest = learn_unknown(draws, 0.05)
        assert forest.leaves == tuple(range(1, 8))
