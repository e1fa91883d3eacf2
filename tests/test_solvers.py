"""Interval-path LP feasibility and GF(2) elimination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_ising import (
    Gf2Equation,
    Gf2System,
    Inconsistent,
    Infeasible,
    IntervalPathLP,
    NoConsistentModel,
    PathConstraint,
    build_interval_lp,
    correlations,
    gf2_solve,
    lp_feasible,
    solvers,
)
from latent_ising.trees import CorrelationVector, TreeTopology

from conftest import philox, random_model

STAR = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])


def assert_satisfies(lp: IntervalPathLP, w: np.ndarray, tol: float = 1e-9):
    assert np.all(w <= tol)
    for con in lp.constraints:
        total = float(sum(w[v] for v in con.variables))
        assert total <= con.upper + tol
        if con.lower is not None:
            assert total >= con.lower - tol


class TestIntervalLp:
    def test_star_feasible_within_bounds(self):
        alpha = CorrelationVector.from_pairs(
            [1, 2, 3], {(1, 2): 0.25, (1, 3): 0.5, (2, 3): 0.5}
        )
        lp, _ = build_interval_lp(STAR, alpha, 0.01)
        w = lp_feasible(lp)
        assert not isinstance(w, Infeasible)
        assert_satisfies(lp, w)

    def test_star_infeasible_triangle(self):
        # solving the star exactly needs theta_1 = sqrt(0.9*0.9/0.1) > 1
        alpha = CorrelationVector.from_pairs(
            [1, 2, 3], {(1, 2): 0.9, (1, 3): 0.9, (2, 3): 0.1}
        )
        lp, _ = build_interval_lp(STAR, alpha, 0.001)
        result = lp_feasible(lp)
        assert isinstance(result, Infeasible)
        assert 0 <= result.constraint < len(lp.constraints)
        assert result.side in ("upper", "lower")
        assert f"{result.side} bound" in result.message

    def test_pivot_cap_raises_domain_error(self, monkeypatch):
        alpha = CorrelationVector.from_pairs(
            [1, 2, 3], {(1, 2): 0.25, (1, 3): 0.5, (2, 3): 0.5}
        )
        lp, _ = build_interval_lp(STAR, alpha, 0.01)
        monkeypatch.setattr(solvers, "_MAX_PIVOTS", 1)
        with pytest.raises(NoConsistentModel):
            lp_feasible(lp)

    def test_all_upper_bounds_only(self):
        # every magnitude below eta: lower bounds vanish, weights become tiny
        alpha = CorrelationVector.from_pairs(
            [1, 2, 3], {(1, 2): 0.001, (1, 3): 0.002, (2, 3): 0.001}
        )
        lp, _ = build_interval_lp(STAR, alpha, 0.01)
        w = lp_feasible(lp)
        assert not isinstance(w, Infeasible)
        assert_satisfies(lp, w)
        assert np.all(w < -5.0)

    def test_deterministic(self):
        alpha = CorrelationVector.from_pairs(
            [1, 2, 3], {(1, 2): 0.25, (1, 3): 0.5, (2, 3): 0.5}
        )
        lp, _ = build_interval_lp(STAR, alpha, 0.05)
        np.testing.assert_array_equal(lp_feasible(lp), lp_feasible(lp))

    def test_bad_interval_rejected(self):
        from latent_ising.errors import BadParameter

        with pytest.raises(BadParameter):
            IntervalPathLP(2, (PathConstraint((0, 1), lower=0.5, upper=-0.5),))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_induced_targets_always_feasible(self, seed):
        """The true log-weights witness feasibility for any eta > 0."""
        rng = philox(seed)
        n = int(rng.integers(3, 9))
        truth = random_model(n, rng, magnitude=(0.05, 1.0), signed=True)
        alpha = correlations(truth)
        eta = float(rng.uniform(1e-6, 0.2))
        lp, _ = build_interval_lp(truth.topology, alpha, eta)
        w = lp_feasible(lp)
        assert not isinstance(w, Infeasible)
        assert_satisfies(lp, w)


class TestAgainstReferenceSolver:
    """Cross-check feasibility verdicts against an independent LP library."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_verdicts_match_scipy(self, seed):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = philox(seed)
        n_vars = int(rng.integers(1, 7))
        constraints = []
        for _ in range(int(rng.integers(1, 9))):
            size = int(rng.integers(1, n_vars + 1))
            variables = tuple(sorted(rng.choice(n_vars, size=size, replace=False).tolist()))
            upper = float(rng.uniform(-5, 0.5))
            lower = None if rng.random() < 0.4 else upper - float(rng.uniform(0.0, 3.0))
            constraints.append(PathConstraint(variables, lower, upper))
        lp = IntervalPathLP(n_vars, tuple(constraints))
        mine = lp_feasible(lp)

        rows, bounds_rhs = [], []
        for con in lp.constraints:
            coeffs = np.zeros(n_vars)
            coeffs[list(con.variables)] = 1.0
            rows.append(coeffs)
            bounds_rhs.append(con.upper)
            if con.lower is not None:
                rows.append(-coeffs)
                bounds_rhs.append(-con.lower)
        reference = scipy_opt.linprog(
            c=np.zeros(n_vars),
            A_ub=np.array(rows),
            b_ub=np.array(bounds_rhs),
            bounds=[(None, 0.0)] * n_vars,
            method="highs",
        )
        assert reference.status in (0, 2)
        if reference.status == 0:
            assert not isinstance(mine, Infeasible)
            assert_satisfies(lp, mine)
            # optimality: the point's smallest slack is the largest t that keeps
            # every bound t away from its endpoint (t capped like the solver's)
            max_slack = scipy_opt.linprog(
                c=-np.eye(n_vars + 1)[n_vars],
                A_ub=np.hstack([np.array(rows), np.ones((len(rows), 1))]),
                b_ub=np.array(bounds_rhs),
                bounds=[(None, 0.0)] * n_vars + [(None, solvers._SLACK_CAP)],
                method="highs",
            )
            assert max_slack.status == 0
            sums = np.array(rows) @ mine
            smallest = min(solvers._SLACK_CAP, float(np.min(np.array(bounds_rhs) - sums)))
            assert smallest == pytest.approx(-max_slack.fun, abs=1e-7)
        else:
            assert isinstance(mine, Infeasible)


class TestGf2:
    def test_empty_system_defaults_to_zero(self):
        assert np.array_equal(gf2_solve(Gf2System(3, ())), np.zeros(3, dtype=int))

    def test_star_equations(self):
        system = Gf2System(
            3,
            (
                Gf2Equation((0, 1), 1),
                Gf2Equation((0, 2), 1),
                Gf2Equation((1, 2), 0),
            ),
        )
        x = gf2_solve(system)
        assert tuple(x) in {(1, 0, 0), (0, 1, 1)}
        for eq in system.equations:
            assert sum(int(x[v]) for v in eq.variables) % 2 == eq.rhs

    def test_direct_contradiction(self):
        system = Gf2System(1, (Gf2Equation((0,), 0), Gf2Equation((0,), 1)))
        assert isinstance(gf2_solve(system), Inconsistent)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_solvable_systems_are_solved_exactly(self, seed):
        rng = philox(seed)
        n = int(rng.integers(1, 12))
        planted = rng.integers(0, 2, n)
        equations = []
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            size = int(rng.integers(1, n + 1))
            variables = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            rhs = int(sum(planted[v] for v in variables) % 2)
            equations.append(Gf2Equation(variables, rhs))
        x = gf2_solve(Gf2System(n, tuple(equations)))
        assert not isinstance(x, Inconsistent)
        for eq in equations:
            assert sum(int(x[v]) for v in eq.variables) % 2 == eq.rhs
