"""Interval-path LP feasibility and GF(2) elimination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_ising import (
    Gf2System,
    Inconsistent,
    Infeasible,
    IntervalPathLP,
    NoConsistentModel,
    build_interval_lp,
    correlations,
    gf2_solve,
    lp_feasible,
    random_weighted_tree,
    solvers,
)
from latent_ising.errors import BadParameter
from latent_ising.trees import TreeTopology

from conftest import pair_vector, peak_bytes, philox, random_model

STAR = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])


def interval_lp(n_vars, constraints) -> IntervalPathLP:
    """The program of ``(variables, lower or None, upper)`` triples; None
    stands for no lower bound."""
    matrix = np.zeros((len(constraints), n_vars), dtype=bool)
    for k, (variables, _, _) in enumerate(constraints):
        matrix[k, list(variables)] = True
    lower = [-np.inf if lo is None else lo for _, lo, _ in constraints]
    upper = [up for _, _, up in constraints]
    return IntervalPathLP(matrix, np.array(lower, dtype=float), np.array(upper, dtype=float))


def gf2_system(n_vars, equations) -> Gf2System:
    """The system of ``(variables, rhs)`` pairs."""
    matrix = np.zeros((len(equations), n_vars), dtype=bool)
    for k, (variables, _) in enumerate(equations):
        matrix[k, list(variables)] = True
    return Gf2System(matrix, np.array([rhs for _, rhs in equations], dtype=np.int64))


def assert_satisfies(lp: IntervalPathLP, w: np.ndarray, tol: float = 1e-9):
    assert np.all(w <= tol)
    sums = lp.constraints @ w
    assert np.all(sums <= lp.upper + tol)
    assert np.all(sums >= lp.lower - tol)


def _reference_lp_feasible(lp: IntervalPathLP):
    """The dense solver the sparse one must reproduce bit for bit: the same
    program and Bland's rule, with the tableau assembled row by row, a dense
    cost vector, the reduced costs recomputed as cost[basis] @ T and a full
    rank-1 update on every pivot."""
    nv = lp.constraints.shape[1]
    rows, rhs, origin = [], [], []
    t = np.zeros(nv + 1)
    t[nv] = 1.0
    for k, variables in enumerate(lp.constraints):
        path = np.zeros(nv + 1)
        path[:nv] = variables
        rows.append(t - path)
        rhs.append(lp.upper[k])
        origin.append((k, "upper"))
        if np.isfinite(lp.lower[k]):
            rows.append(t + path)
            rhs.append(-lp.lower[k])
            origin.append((k, "lower"))
    rows.append(t)
    rhs.append(solvers._SLACK_CAP)

    m = len(rows)
    t0 = min(0.0, min(rhs))
    T = np.hstack([np.array(rows), np.eye(m), np.array(rhs)[:, None] - t0])
    basis = np.arange(nv + 1, nv + 1 + m)
    cost = np.zeros(nv + 1 + m)
    cost[nv] = 1.0
    for _ in range(solvers._MAX_PIVOTS):
        reduced = cost - cost[basis] @ T[:, :-1]
        improving = np.flatnonzero(reduced > solvers._TOL)
        if improving.size == 0:
            break
        col = T[:, improving[0]]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(col > solvers._TOL, T[:, -1] / col, np.inf)
        ties = np.flatnonzero(ratios <= ratios.min() + solvers._TOL)
        row = ties[np.argmin(basis[ties])]
        pivot_row = T[row] / col[row]
        T -= np.outer(col, pivot_row)
        T[row] = pivot_row
        basis[row] = improving[0]

    x = np.zeros(nv + 1 + m)
    x[basis] = T[:, -1]
    if t0 + x[nv] < -solvers._TOL:
        duals = cost[basis] @ T[:, nv + 1 : nv + m]
        k, side = origin[int(np.argmax(duals))]
        lower = float(lp.lower[k]) if np.isfinite(lp.lower[k]) else None
        return Infeasible(
            constraint=k,
            side=side,
            message=f"no assignment satisfies the {side} bound of constraint {k} "
            f"(interval [{lower}, {float(lp.upper[k])}])",
        )
    return -x[:nv]


def _random_interval_lp(rng: np.random.Generator, shape: str) -> IntervalPathLP:
    """Up to 30 variables and 60 constraints.  "planted" programs hold a
    point w <= 0 (feasible, often with equal bounds); "grid" bounds sit on
    multiples of 1/4 so ratio ties are exact; "uniform" bounds are mostly
    infeasible."""
    n_vars = int(rng.integers(1, 31))
    planted = -0.25 * rng.integers(0, 9, n_vars)
    constraints = []
    for _ in range(int(rng.integers(1, 61))):
        size = int(rng.integers(0, n_vars + 1))
        variables = tuple(sorted(rng.choice(n_vars, size=size, replace=False).tolist()))
        if shape == "planted":
            total = float(planted[list(variables)].sum())
            upper = total + 0.25 * int(rng.integers(0, 3))
            lower = total - 0.25 * int(rng.integers(0, 3))
        elif shape == "grid":
            upper = 0.25 * int(rng.integers(-16, 3))
            lower = upper - 0.25 * int(rng.integers(0, 5))
        else:
            upper = float(rng.uniform(-5, 0.5))
            lower = upper - float(rng.uniform(0.0, 3.0))
        if rng.random() < 0.3:
            lower = None
        constraints.append((variables, lower, upper))
    return interval_lp(n_vars, constraints)


class TestIntervalLp:
    def test_star_feasible_within_bounds(self):
        alpha = pair_vector([1, 2, 3], {(1, 2): 0.25, (1, 3): 0.5, (2, 3): 0.5})
        lp, _ = build_interval_lp(STAR, alpha, 0.01)
        w = lp_feasible(lp)
        assert not isinstance(w, Infeasible)
        assert_satisfies(lp, w)

    def test_star_infeasible_triangle(self):
        # solving the star exactly needs theta_1 = sqrt(0.9*0.9/0.1) > 1
        alpha = pair_vector([1, 2, 3], {(1, 2): 0.9, (1, 3): 0.9, (2, 3): 0.1})
        lp, _ = build_interval_lp(STAR, alpha, 0.001)
        result = lp_feasible(lp)
        assert isinstance(result, Infeasible)
        assert 0 <= result.constraint < len(lp.constraints)
        assert result.side in ("upper", "lower")
        assert f"{result.side} bound" in result.message

    def test_pivot_cap_raises_domain_error(self, monkeypatch):
        alpha = pair_vector([1, 2, 3], {(1, 2): 0.25, (1, 3): 0.5, (2, 3): 0.5})
        lp, _ = build_interval_lp(STAR, alpha, 0.01)
        monkeypatch.setattr(solvers, "_MAX_PIVOTS", 1)
        with pytest.raises(NoConsistentModel):
            lp_feasible(lp)

    def test_all_upper_bounds_only(self):
        # every magnitude below eta: lower bounds vanish, weights become tiny
        alpha = pair_vector([1, 2, 3], {(1, 2): 0.001, (1, 3): 0.002, (2, 3): 0.001})
        lp, _ = build_interval_lp(STAR, alpha, 0.01)
        w = lp_feasible(lp)
        assert not isinstance(w, Infeasible)
        assert_satisfies(lp, w)
        assert np.all(w < -5.0)

    def test_deterministic(self):
        alpha = pair_vector([1, 2, 3], {(1, 2): 0.25, (1, 3): 0.5, (2, 3): 0.5})
        lp, _ = build_interval_lp(STAR, alpha, 0.05)
        np.testing.assert_array_equal(lp_feasible(lp), lp_feasible(lp))

    def test_bad_interval_rejected(self):
        with pytest.raises(BadParameter):
            interval_lp(2, [((0, 1), 0.5, -0.5)])

    @pytest.mark.parametrize(
        "lower, upper",
        [(None, float("nan")), (float("nan"), 0.0), (None, float("inf")),
         (None, -float("inf")), (float("inf"), 0.0)],
        ids=["upper-nan", "lower-nan", "upper-inf", "upper-minus-inf", "lower-plus-inf"],
    )
    def test_non_finite_bound_rejected(self, lower, upper):
        with pytest.raises(BadParameter, match="not finite"):
            interval_lp(1, [((0,), lower, upper)])

    @pytest.mark.parametrize("upper", [-1.0, 0.0])
    def test_minus_inf_lower_means_no_lower_bound(self, upper):
        # x0 <= upper with no lower bound, and x0 in [-0.5, 0]: infeasible
        # below -0.5, where the witness prints the absent bound as None
        lp = IntervalPathLP(
            np.ones((2, 1), dtype=bool), np.array([-np.inf, -0.5]), np.array([upper, 0.0])
        )
        want = lp_feasible(interval_lp(1, [((0,), None, upper), ((0,), -0.5, 0.0)]))
        got = lp_feasible(lp)
        if upper < -0.5:
            assert got == want
            assert got.message.endswith(f"constraint 0 (interval [None, {upper}])")
        else:
            assert np.array_equal(got, want)
            assert_satisfies(lp, got)

    def test_bound_spread_that_overflows_rejected(self):
        # each bound is finite, but 1e308 - (-1.7e308) is not
        constraints = [((0,), None, 1e308), ((1,), -1.7e308, -1e308)]
        with pytest.raises(BadParameter, match="upper bound of constraint 0 is too far"):
            interval_lp(2, constraints)

    def test_first_overflowing_bound_in_row_order_named(self):
        # rows: upper 0, lower 0, upper 1; the shift is -1e308, the smallest
        # bound, and both lower 0 and upper 1 overflow when shifted
        constraints = [((0,), -1.7e308, -1e308), ((1,), None, 1.7e308)]
        with pytest.raises(BadParameter, match="^the lower bound of constraint 0 is too far"):
            interval_lp(2, constraints)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["planted", "grid", "uniform"]))
    def test_sparse_pivots_match_dense_reference(self, seed, shape):
        lp = _random_interval_lp(philox(seed), shape)
        want = _reference_lp_feasible(lp)
        got = lp_feasible(lp)
        if isinstance(want, Infeasible):
            assert got == want
        else:
            assert not isinstance(got, Infeasible)
            assert np.array_equal(got, want)

    def test_memory_stays_bounded(self):
        # the tableau keeps one column per non-basic variable, not one per
        # slack: 0.9 MB here, where a column per slack took 6 MB
        tree = random_weighted_tree(32, np.random.default_rng(32), 0.3, 0.8)
        lp, _ = build_interval_lp(tree.topology, correlations(tree), 1e-3)
        assert peak_bytes(lambda: lp_feasible(lp)) < 2_000_000

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
            constraints.append((variables, lower, upper))
        lp = interval_lp(n_vars, constraints)
        mine = lp_feasible(lp)

        rows, bounds_rhs = [], []
        for coeffs, lower, upper in zip(lp.constraints.astype(float), lp.lower, lp.upper):
            rows.append(coeffs)
            bounds_rhs.append(upper)
            if np.isfinite(lower):
                rows.append(-coeffs)
                bounds_rhs.append(-lower)
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


def _reference_gf2_solve(system: Gf2System):
    """Elimination over Python-int bitsets, an independent reference: the
    first unused row with a column's bit is its pivot and is XORed into
    every other row with that bit."""
    n_vars = system.equations.shape[1]
    rows = []
    for idx, (variables, rhs) in enumerate(zip(system.equations, system.rhs)):
        mask = 0
        for v in np.flatnonzero(variables).tolist():
            mask ^= 1 << v
        rows.append([mask, int(rhs) & 1, idx])

    pivot_rows = {}
    used = [False] * len(rows)
    for col in range(n_vars):
        pivot = next(
            (r for r in range(len(rows)) if rows[r][0] >> col & 1 and not used[r]),
            None,
        )
        if pivot is None:
            continue
        pivot_rows[col] = pivot
        used[pivot] = True
        for r in range(len(rows)):
            if r != pivot and rows[r][0] >> col & 1:
                rows[r][0] ^= rows[pivot][0]
                rows[r][1] ^= rows[pivot][1]
    for mask, rhs_bit, idx in rows:
        if mask == 0 and rhs_bit == 1:
            return Inconsistent(equation=idx, message=f"equation {idx} reduces to 0 = 1")
    x = np.zeros(n_vars, dtype=np.int64)
    for col, r in pivot_rows.items():
        x[col] = rows[r][1]
    return x


class TestGf2:
    def test_empty_system_defaults_to_zero(self):
        assert np.array_equal(gf2_solve(gf2_system(3, [])), np.zeros(3, dtype=int))

    def test_star_equations(self):
        equations = [((0, 1), 1), ((0, 2), 1), ((1, 2), 0)]
        x = gf2_solve(gf2_system(3, equations))
        assert tuple(x) in {(1, 0, 0), (0, 1, 1)}
        for variables, rhs in equations:
            assert sum(int(x[v]) for v in variables) % 2 == rhs

    def test_direct_contradiction(self):
        system = gf2_system(1, [((0,), 0), ((0,), 1)])
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
            equations.append((variables, rhs))
        x = gf2_solve(gf2_system(n, equations))
        assert not isinstance(x, Inconsistent)
        for variables, rhs in equations:
            assert sum(int(x[v]) for v in variables) % 2 == rhs

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.booleans())
    def test_matches_bitset_reference(self, seed, planted):
        """Random systems of up to 80 variables, planted (solvable) or with
        random right-hand sides (mostly inconsistent once rows outnumber the
        rank): the solution and the contradiction's index match exactly."""
        rng = philox(seed)
        n = int(rng.integers(1, 81))
        equations = rng.random((int(rng.integers(0, 2 * n + 1)), n)) < rng.uniform(0.02, 0.6)
        if planted:
            rhs = equations.astype(np.int64) @ rng.integers(0, 2, n) % 2
        else:
            rhs = rng.integers(0, 2, len(equations))
        system = Gf2System(equations, rhs)
        want = _reference_gf2_solve(system)
        got = gf2_solve(system)
        if isinstance(want, Inconsistent):
            assert got == want
        else:
            assert not isinstance(got, Inconsistent)
            assert np.array_equal(got, want)
        if planted:
            assert not isinstance(got, Inconsistent)


class TestArrayInputs:
    MATRIX = np.array([[True, False], [True, True]])

    @pytest.mark.parametrize(
        "matrix",
        [np.array([True, False]), np.ones((1, 2, 2), dtype=bool), np.array([[1, 0], [1, 1]]),
         [[True, False], [True, True]]],
        ids=["1-d", "3-d", "int", "list"],
    )
    def test_matrix_must_be_2d_bool(self, matrix):
        with pytest.raises(BadParameter, match="2-D boolean matrix"):
            IntervalPathLP(matrix, np.full(2, -np.inf), np.zeros(2))
        with pytest.raises(BadParameter, match="2-D boolean matrix"):
            Gf2System(matrix, np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize("field", ["lower", "upper"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_bound_length_must_match_rows(self, field, length):
        bounds = {"lower": np.full(2, -np.inf), "upper": np.zeros(2)}
        bounds[field] = bounds[field][:1] if length == 1 else np.append(bounds[field], 0.0)
        with pytest.raises(BadParameter, match=f"{field} must be an array"):
            IntervalPathLP(self.MATRIX, **bounds)

    def test_bounds_must_be_float64(self):
        with pytest.raises(BadParameter, match="float64"):
            IntervalPathLP(self.MATRIX, np.full(2, -1), np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize("rhs", [np.zeros(1, dtype=np.int64), np.zeros(3, dtype=np.int64)])
    def test_rhs_length_must_match_rows(self, rhs):
        with pytest.raises(BadParameter, match="rhs must be an array"):
            Gf2System(self.MATRIX, rhs)

    @pytest.mark.parametrize(
        "rhs, bad",
        [(np.array([0, 2]), 1), (np.array([-1, 0]), 0), (np.array([0.5, 1.0]), 0),
         (np.array([1.0, np.nan]), 1), (np.array(["0", "1"]), 0),
         (np.array([1, None], dtype=object), 1)],
        ids=[f"rhs{k}" for k in range(6)],
    )
    def test_rhs_must_be_bits(self, rhs, bad):
        with pytest.raises(BadParameter, match=f"equation {bad} has non-bit rhs"):
            Gf2System(self.MATRIX, rhs)

    @pytest.mark.parametrize(
        "rhs",
        [np.array([True, False]), np.array([1.0, 0.0]), np.array([1, 0], dtype=object),
         np.array([1 + 0j, 0j])],
        ids=["bool", "float", "object", "complex"],
    )
    def test_bit_rhs_accepted(self, rhs):
        assert np.array_equal(gf2_solve(Gf2System(self.MATRIX, rhs)), [1, 1])
