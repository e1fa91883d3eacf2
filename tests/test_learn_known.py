"""Known-topology weight fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_ising import (
    CorrelationVector,
    DimensionMismatch,
    EmptySample,
    NoConsistentModel,
    TreeTopology,
    WeightedTree,
    correlations,
    exact_tv,
    fit_known,
    fit_report,
    learn_from_samples_known,
    parse_tree,
    random_weighted_tree,
    sample,
)
from latent_ising import learn_known
from latent_ising.errors import BadParameter
from latent_ising.learn_known import build_interval_lp
from latent_ising.solvers import Gf2System, gf2_solve, lp_feasible

from conftest import pair_vector, philox, random_model, three_leaf_star

STAR = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])


class TestFitKnown:
    def test_exact_targets_reproduced(self):
        truth = random_model(8, philox(11), magnitude=(0.3, 0.9), signed=True)
        alpha = correlations(truth)
        fit = fit_known(truth.topology, alpha, 1e-6)
        induced = correlations(fit.tree)
        assert alpha.max_abs_difference(induced) <= 1e-6 + 1e-9
        assert exact_tv(truth, fit.tree) <= 2 * 8 ** 2 * 2e-6

    def test_mixed_signs_recovered_everywhere(self):
        truth = random_model(7, philox(12), magnitude=(0.5, 0.95), signed=True)
        alpha = correlations(truth)
        fit = fit_known(truth.topology, alpha, 1e-6)
        induced = correlations(fit.tree)
        for i, j, target in alpha.pairs():
            assert induced.get(i, j) * target > 0

    def test_impossible_star_targets(self):
        alpha = pair_vector([1, 2, 3], {(1, 2): 0.9, (1, 3): 0.9, (2, 3): 0.1})
        with pytest.raises(NoConsistentModel):
            fit_known(STAR, alpha, 0.001)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_never_fails_on_realizable_targets(self, seed):
        rng = philox(seed)
        n = int(rng.integers(3, 9))
        topo = random_model(n, rng).topology
        # weights including zeros and exact +-1
        theta = {}
        for e in topo.edges:
            kind = rng.random()
            if kind < 0.15:
                theta[e] = 0.0
            elif kind < 0.3:
                theta[e] = float(rng.choice((-1.0, 1.0)))
            else:
                theta[e] = float(rng.uniform(-1, 1))
        truth = WeightedTree(topo, theta)
        alpha = correlations(truth)
        eta = float(rng.uniform(1e-5, 0.3))
        fit = fit_known(topo, alpha, eta)
        induced = correlations(fit.tree)
        for i, j, target in alpha.pairs():
            assert abs(abs(induced.get(i, j)) - abs(target)) <= eta + 1e-9
            if abs(target) > eta:
                assert induced.get(i, j) * target > 0

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_eta_must_be_finite_and_positive(self, eta):
        alpha = correlations(three_leaf_star(0.5, 0.5, 0.5))
        with pytest.raises(BadParameter, match="eta must be finite and positive"):
            fit_known(STAR, alpha, eta)

    @pytest.mark.parametrize("n", [32, 48])
    def test_noisy_exact_targets_fit_at_large_n(self, n):
        """Exact correlations plus uniform noise within eta are realizable, so
        the fit must land within eta of every target with consistent signs."""
        rng = philox(n)
        truth = random_weighted_tree(n, rng, -0.9, 0.9)
        alpha = correlations(truth)
        noisy = CorrelationVector(
            alpha.labels, alpha.values + rng.uniform(-1e-3, 1e-3, alpha.values.size)
        )
        report = fit_report(fit_known(truth.topology, noisy, 1e-3), noisy)
        assert report["max_magnitude_error"] <= 1e-3
        assert report["signs_consistent"]

    def test_report_fields(self):
        truth = three_leaf_star(0.5, 0.5, 1.0)
        alpha = correlations(truth)
        fit = fit_known(truth.topology, alpha, 0.01)
        report = fit_report(fit, alpha)
        assert report["signs_consistent"]
        assert report["max_magnitude_error"] <= 0.01 + 1e-9
        assert report["sign_equations"] == 3

    def test_log_weights_above_zero_are_clamped(self, monkeypatch):
        """The simplex can leave a log-weight a rounding error above 0; such an
        edge gets magnitude exactly 1.0 (not exp of it, which WeightedTree
        rejects as outside [-1, 1]), signed by the GF(2) solution."""
        truth = random_model(6, philox(7), magnitude=(0.3, 0.9), signed=True)
        alpha = correlations(truth)
        lp, _ = build_interval_lp(truth.topology, alpha, 1e-3)
        point = lp_feasible(lp)
        above = np.arange(point.size) % 3 == 0
        point[above] = 5e-10
        monkeypatch.setattr(learn_known, "lp_feasible", lambda program: point.copy())
        fit = fit_known(truth.topology, alpha, 1e-3)
        strong = np.abs(alpha.values) > 1e-3
        bits = gf2_solve(Gf2System(lp.constraints[strong], alpha.values[strong] < 0))
        theta = np.array([fit.tree.theta[e] for e in truth.topology.edges])
        assert np.array_equal(np.abs(theta[above]), np.ones(above.sum()))
        assert np.array_equal(np.signbit(theta), bits.astype(bool))

    def test_sign_system_solves_past_63_edges(self):
        truth = random_model(40, philox(13), magnitude=(0.3, 0.9), signed=True)
        edges = truth.topology.edges
        assert len(edges) > 63
        lp, pairs = build_interval_lp(truth.topology, correlations(truth), 1e-3)
        # the sign system fit_known builds from the path matrix stays solvable
        paths = lp.constraints.astype(np.int64)
        rhs = paths @ np.array([truth.theta[e] < 0 for e in edges]) % 2
        bits = gf2_solve(Gf2System(lp.constraints, rhs))
        assert np.array_equal(paths @ bits % 2, rhs)


class TestLearnFromSamples:
    def test_end_to_end_quality(self):
        truth = random_model(6, philox(21), magnitude=(0.2, 0.9), signed=True)
        draws = sample(truth, 50_000, 77)
        fit = learn_from_samples_known(truth.topology, draws, 0.05)
        assert exact_tv(truth, fit.tree) <= 0.1
        # when the fit lands within 4*eta of the truth pairwise, the
        # tensorization bound caps the total variation at 8 n^2 eta
        deviation = correlations(truth).max_abs_difference(correlations(fit.tree))
        if deviation <= 4 * fit.eta_used:
            assert exact_tv(truth, fit.tree) <= 8 * 6 ** 2 * fit.eta_used

    def test_zero_truth_stays_near_uniform(self):
        topo = random_model(6, philox(22)).topology
        truth = WeightedTree(topo, {e: 0.0 for e in topo.edges})
        draws = sample(truth, 20_000, 5)
        fit = learn_from_samples_known(topo, draws, 0.05)
        report = fit_report(fit, correlations(truth))
        eta = fit.eta_used
        assert report["max_magnitude_error"] <= 2 * eta
        assert exact_tv(truth, fit.tree) <= 2 * 6 ** 2 * 2 * eta

    def test_empty_samples(self):
        topo = STAR
        with pytest.raises(EmptySample):
            learn_from_samples_known(topo, np.zeros((0, 3)), 0.05)

    def test_sample_width_mismatch_rejected(self):
        message = "^samples have 4 columns, topology has 3 leaves$"
        with pytest.raises(DimensionMismatch, match=message):
            learn_from_samples_known(STAR, np.ones((10, 4), dtype=np.int8), 0.05)

    def test_leaves_other_than_1_to_n_rejected(self):
        # estimation labels the columns 1..n, so leaves 2..5 would miss leaf 5
        topo = parse_tree("((2:0.5,3:0.5):0.5,(4:0.5,5:0.5):0.5);").topology
        with pytest.raises(DimensionMismatch, match=r"^tree leaves must be labeled 1\.\.n$"):
            learn_from_samples_known(topo, np.ones((10, 4), dtype=np.int8), 0.05)
