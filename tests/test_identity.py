"""Identity testing between a sample source and a reference model."""

import math

import numpy as np
import pytest

from latent_ising import (
    BadParameter,
    DimensionMismatch,
    EmptySample,
    TreeTopology,
    WeightedTree,
    exact_tv,
    learn_from_samples_known,
    required_samples,
    sample,
    test_identity as run_identity_test,
)

from conftest import philox, random_model

STAR3 = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])


class TestRequiredSamples:
    def test_reference_value(self):
        got = required_samples(10, 5, 0.1, 0.05)
        want = math.ceil(10 ** 10 * 25 * math.log(10 / 0.05) / 0.01)
        assert got == want
        assert got == pytest.approx(1.32e14, rel=0.005)

    def test_small_instance(self):
        assert required_samples(2, 1, 1.0, 0.5) == math.ceil(2 ** 10 * math.log(4))

    @pytest.mark.parametrize("eps", [1e-200, 1e-160])
    def test_count_beyond_float_range_rejected(self, eps):
        with pytest.raises(BadParameter, match=r"^the sample count at n=8, .* is beyond float"):
            required_samples(8, 5, eps, 0.05)

    def test_guards(self):
        with pytest.raises(BadParameter):
            required_samples(10, 5, 0.0, 0.05)
        with pytest.raises(BadParameter):
            required_samples(1, 5, 0.5, 0.05)


class TestVerdicts:
    def test_uniform_reference_rejects_chain_source(self):
        uniform = WeightedTree(STAR3, {e: 0.0 for e in STAR3.edges})
        chain = WeightedTree(STAR3, {e: 1.0 for e in STAR3.edges})
        assert exact_tv(chain, uniform) == pytest.approx(0.75)
        draws = sample(chain, 10_000, 17)
        verdict = run_identity_test(draws, uniform, eps=0.5, delta=0.05)
        assert verdict.decision == "reject"
        assert verdict.statistic > verdict.threshold
        assert verdict.statistic == pytest.approx(1.0, abs=0.05)

    def test_accepts_own_samples(self):
        truth = random_model(6, philox(60), magnitude=(0.3, 0.8), signed=True)
        draws = sample(truth, 20_000, 3)
        verdict = run_identity_test(draws, truth, eps=0.1, delta=0.05)
        assert verdict.accepted

    def test_decision_matches_threshold_rule(self):
        truth = random_model(5, philox(61))
        draws = sample(truth, 2_000, 5)
        verdict = run_identity_test(draws, truth, eps=0.2, delta=0.1)
        assert (verdict.statistic > verdict.threshold) == (verdict.decision == "reject")

    @pytest.mark.parametrize("eps", [float("nan"), 1.5, float("inf"), 0.0, -0.1])
    def test_eps_outside_unit_interval_rejected(self, eps):
        truth = random_model(4, philox(62))
        draws = sample(truth, 100, 1)
        with pytest.raises(BadParameter, match=r"eps must be in \(0, 1\]"):
            run_identity_test(draws, truth, eps=eps, delta=0.1)

    def test_dimension_mismatch(self):
        truth = random_model(5, philox(62))
        draws = sample(truth, 100, 1)
        other = random_model(6, philox(63))
        with pytest.raises(DimensionMismatch):
            run_identity_test(draws, other, eps=0.1, delta=0.05)

    @pytest.mark.parametrize(
        "samples, error, message",
        [
            (np.ones(5), EmptySample, r"^sample matrix must be \(m, n\) with m >= 1, got \(5,\)$"),
            (np.ones((10, 6)), DimensionMismatch, "^samples have 6 columns, topology has 5 leaves$"),
        ],
        ids=["1-D", "width"],
    )
    def test_sample_shape_faults_match_the_known_topology_learner(self, samples, error, message):
        truth = random_model(5, philox(62))
        with pytest.raises(error, match=message):
            run_identity_test(samples, truth, eps=0.1, delta=0.05)
        with pytest.raises(error, match=message):
            learn_from_samples_known(truth.topology, samples, 0.05)

    def test_type_one_error_rate(self):
        truth = random_model(7, philox(64), magnitude=(0.2, 0.8), signed=True)
        delta, trials = 0.1, 100
        rejections = 0
        for trial in range(trials):
            draws = sample(truth, 4_000, 90_000 + trial)
            if not run_identity_test(draws, truth, eps=0.3, delta=delta).accepted:
                rejections += 1
        assert rejections / trials <= delta + 0.02
