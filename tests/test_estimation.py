"""Empirical correlation estimation and the Hoeffding radius algebra."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, from_dtype

from latent_ising import (
    BadParameter,
    BadSpinValue,
    EmptySample,
    UnknownLeaf,
    UnknownPair,
    confidence_radius,
    correlations,
    empirical_correlations,
    report_from_json,
    report_to_json,
    sample,
    samples_for_radius,
)
from latent_ising.estimation import _BLOCK_ROWS, _all_spins

from conftest import peak_bytes, philox, random_model


def _isin_spins(x: np.ndarray) -> bool:
    """The reference membership test that ``_all_spins`` must agree with."""
    return bool(np.all(np.isin(x, (-1, 1))))


@st.composite
def _spin_like_arrays(draw):
    """Arrays of +-1 (in the dtype's range) with a few arbitrary entries mixed in."""
    dtype = np.dtype(draw(st.sampled_from(["int8", "int64", "uint8", "float64", "bool"])))
    spins = [v for v in (-1, 1) if np.can_cast(np.min_scalar_type(v), dtype)] or [True]
    shape = draw(array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6))
    x = draw(arrays(dtype, shape, elements=st.sampled_from(spins)))
    for _ in range(draw(st.integers(0, 2)) if x.size else 0):
        x.flat[draw(st.integers(0, x.size - 1))] = draw(from_dtype(dtype))
    return x


class TestEmpiricalCorrelations:
    def test_mean_of_products(self):
        rows = np.array([[1, 1], [1, -1]])
        report = empirical_correlations(rows, 0.1)
        assert report.alpha_hat.get(1, 2) == pytest.approx(0.0)

    def test_perfectly_correlated(self):
        rows = np.array([[1, 1], [-1, -1]])
        assert empirical_correlations(rows, 0.1).alpha_hat.get(1, 2) == pytest.approx(1.0)

    def test_radius_formula(self):
        report = empirical_correlations(np.ones((18421, 10), dtype=int), 0.01)
        assert report.eta == pytest.approx(math.sqrt(2 * math.log(100 / 0.01) / 18421))
        assert report.eta == pytest.approx(0.03163, abs=2e-5)

    def test_bad_inputs(self):
        with pytest.raises(EmptySample):
            empirical_correlations(np.zeros((0, 4)), 0.1)
        with pytest.raises(BadSpinValue):
            empirical_correlations(np.array([[1, 2]]), 0.1)
        with pytest.raises(BadSpinValue):  # the spin check comes before the radius's delta check
            empirical_correlations(np.array([[1, 2]]), 2.0)
        with pytest.raises(BadSpinValue):  # a bad entry in row B only, the last block
            empirical_correlations(np.vstack([np.ones((_BLOCK_ROWS, 3)), [[1, 0, 1]]]), 0.1)

    @pytest.mark.parametrize(
        "m", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7]
    )
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_blocked_gram_equals_float64_reference(self, m, dtype):
        x = sample(random_model(6, philox(m), signed=True), m, 7).astype(dtype)
        gram = x.astype(np.float64).T @ x / m
        expected = np.clip(gram[np.triu_indices(6, k=1)], -1.0, 1.0)
        assert np.array_equal(empirical_correlations(x, 0.05).alpha_hat.values, expected)

    def test_memory_stays_bounded(self):
        draws = sample(random_model(16, philox(8)), 200_000, 3)
        assert peak_bytes(lambda: empirical_correlations(draws, 0.05)) < 2_000_000

    @pytest.mark.parametrize(
        "dtype, bad",
        [("int8", -128), ("int64", 0), ("uint8", 255), ("float64", np.nan),
         ("complex128", 1j), ("object", "a")],
    )
    @pytest.mark.parametrize(
        "at", [None, 0, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 2],
        ids=["clean", "first-row", "end-of-first-block", "second-block", "last-row"],
    )
    def test_spin_predicate_matches_isin_across_blocks(self, dtype, bad, at):
        x = np.ones((2 * _BLOCK_ROWS + 3, 3), dtype=dtype)
        if dtype != "uint8":
            x[::2, 1] = -1
        if at is not None:
            x[at, 2] = bad
        assert _all_spins(x) == _isin_spins(x)
        assert _all_spins(x.ravel()) == _isin_spins(x.ravel())  # one long row

    @settings(max_examples=300, deadline=None)
    @given(_spin_like_arrays())
    @example(np.array([-128, 1], dtype=np.int8))
    @example(np.array([255, 1], dtype=np.uint8))
    @example(np.array([True, False]))
    @example(np.array([True, True]))
    @example(np.array([1, 0, -1], dtype=np.int64))
    @example(np.array([1.0, np.nan]))
    @example(np.array([-np.inf, 1.0]))
    @example(np.array([1j, 1]))  # |1j| is 1, yet 1j is no spin
    @example(np.array([-1 + 0j, 1]))
    @example(np.array([1, -1], dtype=object))
    @example(np.array([1, "a"], dtype=object))
    @example(np.array(["1", "-1"]))
    @example(np.array([1, -1], dtype="timedelta64[s]"))
    def test_spin_predicate_matches_isin(self, x):
        assert _all_spins(x) == _isin_spins(x)

    def test_report_json_round_trip(self):
        draws = sample(random_model(5, philox(3)), 500, 1)
        report = empirical_correlations(draws, 0.05)
        again = report_from_json(report_to_json(report))
        assert again.m == report.m and again.eta == report.eta
        np.testing.assert_allclose(again.alpha_hat.values, report.alpha_hat.values)

    def test_report_json_with_nan_rejected(self):
        text = (
            '{"n": 3, "m": 10, "delta": 0.1, "eta": 0.5, '
            '"alpha": [[1, 2, NaN], [1, 3, 0.5], [2, 3, 0.5]]}'
        )
        with pytest.raises(UnknownPair):
            report_from_json(text)

    def test_report_json_naming_an_unknown_leaf_rejected(self):
        text = (
            '{"n": 3, "m": 10, "delta": 0.1, "eta": 0.5, '
            '"alpha": [[1, 2, 0.5], [1, 4, 0.5], [2, 3, 0.5]]}'
        )
        with pytest.raises(UnknownLeaf):
            report_from_json(text)


class TestSamplesForRadius:
    def test_pins_smallest_count(self):
        # oracle: substitute back m and m-1 into the radius
        m = samples_for_radius(10, 0.01, 0.03163)
        assert m == 18413
        assert confidence_radius(10, 0.01, m) <= 0.03163
        assert confidence_radius(10, 0.01, m - 1) > 0.03163

    def test_small_case(self):
        # 2 log(4/0.5) = 2 log 8 = 4.159 -> 5
        assert samples_for_radius(2, 0.5, 1.0) == 5

    @pytest.mark.parametrize("eta", [0.0, float("nan")])
    def test_zero_radius_guarded(self, eta):
        with pytest.raises(BadParameter):
            samples_for_radius(4, 0.1, eta)

    @pytest.mark.parametrize("eta", [1e-300, 1e-160])
    def test_count_beyond_float_range_rejected(self, eta):
        with pytest.raises(BadParameter, match=r"^the sample count for radius .* is beyond float"):
            samples_for_radius(4, 0.05, eta)

    @pytest.mark.parametrize("m, scale", [(10**400, 1e-200), (2**1024, 2.0**-512)],
                             ids=["10**400", "2**1024"])
    def test_radius_of_counts_beyond_float_range(self, m, scale):
        # float(m) overflows; the radius itself is a normal float
        expected = math.sqrt(2.0 * math.log(16 / 0.05)) * scale
        assert confidence_radius(4, 0.05, m) == pytest.approx(expected, rel=1e-14)
        assert confidence_radius(4, 0.05, m) <= confidence_radius(4, 0.05, 2**1024 - 2**970 - 1)

    def test_count_whose_bisection_passes_float_range(self):
        # the count fits a float, but the bisection's upper end, twice it, does not
        m = samples_for_radius(4, 0.05, 2.6e-154)
        assert 2 * m > 2**1024
        assert confidence_radius(4, 0.05, m) <= 2.6e-154 < confidence_radius(4, 0.05, m - 1)

    @pytest.mark.parametrize("eta", [1e-11, 1e-150])
    def test_count_past_2_53_found_in_few_steps(self, monkeypatch, eta):
        # above 2**53 a float skips integers, so stepping m by one need not end
        radius, calls = confidence_radius, []

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 1100, "stepped through the counts one by one"
            return radius(*args)

        monkeypatch.setattr("latent_ising.estimation.confidence_radius", counted)
        m = samples_for_radius(4, 0.05, eta)
        assert m > 2**53
        assert radius(4, 0.05, m) <= eta < radius(4, 0.05, m - 1)

    def test_round_trip_with_radius(self):
        for n, delta, eta in ((4, 0.2, 0.05), (8, 0.01, 0.11), (12, 0.5, 0.008)):
            m = samples_for_radius(n, delta, eta)
            assert confidence_radius(n, delta, m) <= eta
            assert m == 1 or confidence_radius(n, delta, m - 1) > eta


def test_coverage_tracks_delta():
    """The fraction of trials with any estimate off by more than the radius
    stays below delta (plus slack); Hoeffding is conservative in practice."""
    truth = random_model(8, philox(2024), magnitude=(0.2, 0.8), signed=True)
    alpha = correlations(truth)
    delta, m, trials = 0.2, 2500, 200
    eta = confidence_radius(8, delta, m)
    misses = 0
    for trial in range(trials):
        draws = sample(truth, m, 50_000 + trial)
        report = empirical_correlations(draws, delta)
        if report.alpha_hat.max_abs_difference(alpha) > eta:
            misses += 1
    assert misses / trials <= delta + 0.02
