"""Unknown-topology learning pipeline."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latent_ising import (
    BadParameter,
    CorrelationVector,
    EmptySample,
    NoConsistentModel,
    WeightedTree,
    binary,
    choose_params,
    correlations,
    exact_tv,
    fit_known,
    learn_unknown,
    learn_unknown_from_correlations,
    normalize,
    random_weighted_tree,
    sample,
    topologies_equal,
)

from conftest import caterpillar, philox, random_model

learn_unknown_module = sys.modules["latent_ising.learn_unknown"]


class TestChooseParams:
    def test_reference_values(self):
        cfg = choose_params(1e-6, 10)
        assert cfg.xi == pytest.approx(1e-2 * 10 ** (-2 / 3))
        assert not cfg.clamped

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


class TestComponentFit:
    """A component is fitted at the smallest feasible radius from eta up."""

    @pytest.fixture
    def radii(self, monkeypatch):
        """Every radius the component fitter tries, with whether it was feasible."""
        tried = []

        def recording_fit(topology, alpha_hat, eta):
            try:
                fit = fit_known(topology, alpha_hat, eta)
            except NoConsistentModel:
                tried.append((eta, False))
                raise
            tried.append((eta, True))
            return fit

        monkeypatch.setattr(learn_unknown_module, "fit_known", recording_fit)
        return tried

    def test_feasible_at_eta_fits_once(self, radii):
        truth = random_model(6, philox(41), magnitude=(0.3, 0.7))
        tree = learn_unknown_module._fit_component(truth.topology, correlations(truth), 1e-9)
        assert radii == [(1e-9, True)]
        assert tree.theta == fit_known(truth.topology, correlations(truth), 1e-9).tree.theta

    def test_infeasible_at_eta_keeps_the_upper_end_of_a_five_percent_bracket(self, radii):
        # a caterpillar cannot carry the correlations of another topology
        truth = random_model(6, philox(46), magnitude=(0.3, 0.7))
        wrong = caterpillar(6)
        assert not topologies_equal(wrong, normalize(truth).topology)
        alpha = correlations(truth)
        tree = learn_unknown_module._fit_component(wrong, alpha, 1e-3)
        assert radii[0] == (1e-3, False)
        radius = min(eta for eta, feasible in radii if feasible)
        below = max(eta for eta, feasible in radii if not feasible)
        assert below < radius <= below * learn_unknown_module.RADIUS_BRACKET
        assert len(radii) <= 11  # eta, then a bisection of [1e-3, 1] in log space
        assert tree.theta == fit_known(wrong, alpha, radius).tree.theta


class TestLearnUnknownAtScale:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 10**6))
    @example(64, 5)  # absolute quartet ties misplaced a near-zero edge; eta was infeasible
    @example(55, 244)  # so did they here, and a bisection fit had a log-weight above 0
    def test_exact_correlations_never_raise(self, n, seed):
        truth = random_weighted_tree(n, philox(seed), -0.9, 0.9)
        forest = learn_unknown_from_correlations(correlations(truth), 1e-9)
        assert forest.leaves == tuple(range(1, n + 1))

    @pytest.mark.parametrize("n, seed", [(48, 0), (48, 23), (64, 12)])
    def test_exact_correlations_are_matched(self, n, seed):
        truth = random_weighted_tree(n, np.random.default_rng([n, seed]), -0.9, 0.9)
        alpha = correlations(truth)
        forest = learn_unknown_from_correlations(alpha, 1e-9)
        assert correlations(forest).max_abs_difference(alpha) <= 1e-6

    def test_noisy_correlations_n8_to_n14(self):
        # exact correlations plus uniform +-1e-3 noise, learned at eta = 1e-3.
        # Over seeds 0-49 at each n (200 draws) the exact TV had median 0.004
        # and max 0.25, and the median of each block of ten seeds lay in
        # 0.002-0.017; these are the first ten seeds, all of them
        tvs = []
        for n in (8, 10, 12, 14):
            for seed in range(10):
                truth = random_weighted_tree(n, np.random.default_rng(seed), -0.9, 0.9)
                alpha = correlations(truth)
                noise = np.random.default_rng(100 + seed).uniform(-1e-3, 1e-3, alpha.values.shape)
                noisy = CorrelationVector(alpha.labels, np.clip(alpha.values + noise, -1, 1))
                tvs.append(exact_tv(truth, learn_unknown_from_correlations(noisy, 1e-3)))
        assert max(tvs) <= 0.3
        assert float(np.median(tvs)) <= 0.02
